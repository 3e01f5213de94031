package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"talon"
	"talon/internal/core"
)

// CSSResult is the outcome of one end-to-end compressive training run on
// the public talon API: the probes exchanged, the estimator's selection
// and the true SNR of the chosen sector at the deployed poses.
type CSSResult struct {
	M         int
	Selection talon.Selection
	Probes    []talon.Probe
	Sector    talon.SectorID
	TrueSNRdB float64
}

// RunCSS runs one real compressive training campaign end to end on the
// public API — pattern measurement, Trainer.Run with the full mutual
// protocol exchange — deployed in the conference room with the AP turned
// 25° away and the station 6 m out.
func RunCSS(ctx context.Context, seed int64, f Fidelity) (*CSSResult, error) {
	ap, err := talon.NewDevice(talon.DeviceConfig{Name: "ap", Seed: seed})
	if err != nil {
		return nil, err
	}
	sta, err := talon.NewDevice(talon.DeviceConfig{Name: "sta", Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	for _, d := range []*talon.Device{ap, sta} {
		if err := d.Jailbreak(); err != nil {
			return nil, err
		}
	}

	grid, repeats := talon.DefaultPatternGrid(), 3
	if f.Quick() {
		g, err := talon.NewGrid(-90, 90, 9, 0, 32, 8)
		if err != nil {
			return nil, err
		}
		grid, repeats = g, 1
	}
	patterns, err := talon.MeasurePatterns(ctx, ap, sta, grid, repeats)
	if err != nil {
		return nil, err
	}

	// Deploy in the conference room: AP turned 25° away, station 6 m out.
	link := talon.NewLink(talon.ConferenceRoom(), ap, sta)
	apPose := talon.Pose{Yaw: -25}
	apPose.Pos.Z = 1.2
	staPose := talon.Pose{Yaw: 180}
	staPose.Pos.X = 6
	staPose.Pos.Z = 1.2
	ap.SetPose(apPose)
	sta.SetPose(staPose)

	est, err := talon.NewEstimator(patterns, EstimatorOptions())
	if err != nil {
		return nil, err
	}
	trainer, err := talon.NewTrainer(link, est, talon.WithM(14), talon.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	res, err := trainer.Run(ctx, ap, sta, talon.Mutual())
	if err != nil {
		return nil, err
	}

	return &CSSResult{
		M:         14,
		Selection: res.Selection,
		Probes:    core.ProbesFromMeasurements(res.Probed, res.SLS.AtResponder),
		Sector:    res.Sector,
		TrueSNRdB: link.GroundTruth(ap, sta).SNR(res.Sector),
	}, nil
}

// Table renders the probe list and the selection the way the runner
// always printed them (the String forms of Probe and Selection).
func (r *CSSResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compressive training (conference room, M = %d):\n", r.M)
	for _, p := range r.Probes {
		fmt.Fprintln(&b, "  probe", p)
	}
	fmt.Fprintln(&b, "selection:", r.Selection)
	fmt.Fprintf(&b, "true SNR on sector %v: %.1f dB\n", r.Sector, r.TrueSNRdB)
	return b.String()
}

// Summary reports the selected sector and its link quality.
func (r *CSSResult) Summary() string {
	return fmt.Sprintf("end-to-end CSS (M=%d) selected sector %v at %.1f dB true SNR over %d probes",
		r.M, r.Sector, r.TrueSNRdB, len(r.Probes))
}

// MarshalJSON emits the same record the runner always wrote.
func (r *CSSResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		M         int             `json:"m"`
		Selection talon.Selection `json:"selection"`
		Probes    []talon.Probe   `json:"probes"`
		Sector    talon.SectorID  `json:"sector"`
		TrueSNRdB float64         `json:"true_snr_db"`
	}{r.M, r.Selection, r.Probes, r.Sector, r.TrueSNRdB})
}
