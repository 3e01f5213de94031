package eval

import (
	"math"
	"time"

	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/wil"
)

// Retraining-study horizons per fidelity.
const (
	fullRetrainingDuration  = 20 * time.Second
	quickRetrainingDuration = 6 * time.Second
)

// studyRNG derives a study's RNG from the Config seed, labelled so the
// streams match what the pre-registry evalrunner passed to each study.
func studyRNG(cfg Config, label string) *stats.RNG {
	return stats.NewRNG(cfg.Seed).Split(label)
}

// newLink wires the platform's devices into env.
func newLink(env *channel.Environment, p *Platform) *wil.Link {
	return wil.NewLink(env, p.DUT, p.Probe)
}

// runSubSweep performs a one-directional probing sweep over probeSet from
// the DUT to the probe.
func runSubSweep(link *wil.Link, p *Platform, probeSet *sector.Set) (map[sector.ID]radio.Measurement, error) {
	return link.RunTXSS(p.DUT, p.Probe, dot11ad.SubSweepSchedule(probeSet))
}

// trueLoss returns trueSNR(best sector) − trueSNR(selected) at the
// devices' current poses.
func trueLoss(link *wil.Link, p *Platform, selected sector.ID) (float64, bool) {
	gt := link.GroundTruth(p.DUT, p.Probe)
	best, got := bestSNR(gt), gt.SNR(selected)
	if math.IsInf(best, -1) || math.IsInf(got, -1) {
		return 0, false
	}
	return best - got, true
}

// bestSNR returns the highest true SNR over the Talon transmit sectors,
// -Inf when none reaches the receiver.
func bestSNR(gt *wil.GroundTruth) float64 {
	best := math.Inf(-1)
	for _, id := range sector.TalonTX() {
		if snr := gt.SNR(id); snr > best {
			best = snr
		}
	}
	return best
}
