package eval

import (
	"context"
	"fmt"
	"strings"

	"talon/internal/channel"
	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/testbed"
)

// BlockageResult quantifies the BeamSpy-style extension: estimate the
// secondary (reflected) path from one compressive probing round, and
// when the line of sight gets blocked, switch to the backup sector
// without retraining.
type BlockageResult struct {
	Rounds int
	// BackupFound counts rounds where a distinct secondary-path sector
	// was available.
	BackupFound int
	// PrimarySNRdB / BackupSNRdB are mean true SNRs before blockage.
	PrimarySNRdB float64
	BackupSNRdB  float64
	// BlockedPrimarySNRdB is the primary sector's mean SNR after LOS
	// blockage (usually a dead link).
	BlockedPrimarySNRdB float64
	// BlockedBackupSNRdB is the backup's mean SNR after blockage — the
	// link it rescues.
	BlockedBackupSNRdB float64
	// OracleBlockedSNRdB is the best achievable SNR under blockage.
	OracleBlockedSNRdB float64
}

// BlockageStudy runs the experiment in the conference room: the devices
// communicate over LOS, CSS with backup estimates both paths, then the
// LOS is blocked and the backup takes over. ctx cancels the study
// between rounds.
func BlockageStudy(ctx context.Context, p *Platform, m, rounds int, rng *stats.RNG) (*BlockageResult, error) {
	if m <= 0 {
		m = 20
	}
	if rounds <= 0 {
		rounds = 20
	}
	dutPose, probePose := testbed.FacingPoses(6, 1.2)
	p.DUT.SetPose(dutPose)
	p.Probe.SetPose(probePose)

	// The deployment sits beside a metal whiteboard: a strong specular
	// reflector a meter and a half off the link axis, giving the
	// environment a usable secondary path.
	addBoard := func(env *channel.Environment) *channel.Environment {
		env.Reflectors = append(env.Reflectors,
			channel.NewWallY("metal-whiteboard", 1.6, 1.0, 5.0, 0.6, 2.0, 5))
		return env
	}
	open := addBoard(channel.ConferenceRoom())
	blocked := addBoard(channel.ConferenceRoom())
	blocked.LOSBlocked = true
	openLink := newLink(open, p)
	blockedLink := newLink(blocked, p)

	res := &BlockageResult{Rounds: rounds}
	var primSum, backSum, blockPrimSum, blockBackSum, oracleSum float64
	found := 0
	for i := 0; i < rounds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		probeSet, err := core.RandomProbes(rng, sector.TalonTX(), m)
		if err != nil {
			return nil, err
		}
		meas, err := openLink.RunTXSS(p.DUT, p.Probe, dot11ad.SubSweepSchedule(probeSet))
		if err != nil {
			return nil, err
		}
		sel, err := p.Estimator.SelectWithBackup(ctx, core.ProbesFromMeasurements(probeSet.IDs(), meas), 18)
		if err != nil || !sel.HasBackup {
			continue
		}
		found++
		openGT := openLink.GroundTruth(p.DUT, p.Probe)
		primSum += openGT.SNR(sel.Primary.Sector)
		backSum += openGT.SNR(sel.Backup.Sector)
		blockedGT := blockedLink.GroundTruth(p.DUT, p.Probe)
		blockPrimSum += clampSNR(blockedGT.SNR(sel.Primary.Sector))
		blockBackSum += clampSNR(blockedGT.SNR(sel.Backup.Sector))
		oracleSum += clampSNR(bestSNR(blockedGT))
	}
	res.BackupFound = found
	if found > 0 {
		n := float64(found)
		res.PrimarySNRdB = primSum / n
		res.BackupSNRdB = backSum / n
		res.BlockedPrimarySNRdB = blockPrimSum / n
		res.BlockedBackupSNRdB = blockBackSum / n
		res.OracleBlockedSNRdB = oracleSum / n
	}
	return res, nil
}

// clampSNR floors -Inf (dead link) at a displayable value.
func clampSNR(snr float64) float64 {
	if snr < -40 {
		return -40
	}
	return snr
}

// Table renders the study.
func (r *BlockageResult) Table() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Blockage study: backup sector from multipath estimation (conference room)")
	fmt.Fprintf(&b, "  backup available:            %d/%d rounds\n", r.BackupFound, r.Rounds)
	fmt.Fprintf(&b, "  LOS open:    primary %6.2f dB, backup %6.2f dB\n", r.PrimarySNRdB, r.BackupSNRdB)
	fmt.Fprintf(&b, "  LOS blocked: primary %6.2f dB, backup %6.2f dB (oracle %6.2f dB)\n",
		r.BlockedPrimarySNRdB, r.BlockedBackupSNRdB, r.OracleBlockedSNRdB)
	return b.String()
}
