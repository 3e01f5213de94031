package fault

import (
	"fmt"

	"talon/internal/dot11ad"
	"talon/internal/radio"
	"talon/internal/stats"
)

// Bernoulli drops every frame independently with probability P — the
// memoryless loss channel.
type Bernoulli struct {
	Nop
	p   float64
	rng *stats.RNG
}

// NewBernoulli returns a Bernoulli loss channel with loss probability p,
// seeded deterministically.
func NewBernoulli(p float64, seed int64) *Bernoulli {
	return &Bernoulli{p: clamp01(p), rng: stats.NewRNG(seed)}
}

// DropFrame implements Injector.
func (b *Bernoulli) DropFrame(FrameEvent) bool { return b.rng.Bool(b.p) }

// GEConfig parameterizes a Gilbert–Elliott loss channel: a two-state
// Markov chain whose bad state models a blockage or deep fade. All four
// values are probabilities per frame.
type GEConfig struct {
	// PGoodToBad and PBadToGood are the per-frame transition
	// probabilities; 1/PBadToGood is the mean burst length in frames.
	PGoodToBad, PBadToGood float64
	// LossGood and LossBad are the per-frame loss probabilities inside
	// each state (classically 0 and 1).
	LossGood, LossBad float64
}

// GEFromLossRate derives a Gilbert–Elliott configuration with the given
// stationary loss rate and mean burst length in frames (lossless good
// state, fully lossy bad state). meanBurst values below 1 are clamped
// to 1; rate is clamped to [0, 0.95] so the chain keeps a good state.
func GEFromLossRate(rate, meanBurst float64) GEConfig {
	rate = clampF(rate, 0, 0.95)
	if meanBurst < 1 {
		meanBurst = 1
	}
	recover := 1 / meanBurst
	var fail float64
	if rate > 0 {
		// Stationary bad-state occupancy p/(p+r) = rate.
		fail = clamp01(rate * recover / (1 - rate))
	}
	return GEConfig{PGoodToBad: fail, PBadToGood: recover, LossGood: 0, LossBad: 1}
}

// GilbertElliott is the classic bursty loss channel: frame losses
// cluster into bursts whose length follows the bad-state dwell time —
// the shape of SSW loss under transient blockage at 60 GHz.
type GilbertElliott struct {
	Nop
	cfg GEConfig
	bad bool
	rng *stats.RNG
}

// NewGilbertElliott returns a deterministic Gilbert–Elliott channel
// starting in the good state.
func NewGilbertElliott(cfg GEConfig, seed int64) *GilbertElliott {
	cfg.PGoodToBad = clamp01(cfg.PGoodToBad)
	cfg.PBadToGood = clamp01(cfg.PBadToGood)
	cfg.LossGood = clamp01(cfg.LossGood)
	cfg.LossBad = clamp01(cfg.LossBad)
	return &GilbertElliott{cfg: cfg, rng: stats.NewRNG(seed)}
}

// DropFrame implements Injector: advance the chain one frame, then lose
// the frame with the current state's loss probability.
func (g *GilbertElliott) DropFrame(FrameEvent) bool {
	if g.bad {
		if g.rng.Bool(g.cfg.PBadToGood) {
			g.bad = false
		}
	} else if g.rng.Bool(g.cfg.PGoodToBad) {
		g.bad = true
	}
	p := g.cfg.LossGood
	if g.bad {
		p = g.cfg.LossBad
	}
	return g.rng.Bool(p)
}

// RSSIBias shifts every reported RSSI by a constant offset — a
// miscalibrated detector. SNR readings are untouched, which decorrelates
// the two paths beyond the stock measurement model and stresses the
// Eq. 5 joint correlation.
type RSSIBias struct {
	Nop
	// BiasDB is the constant RSSI offset in dB.
	BiasDB float64
}

// PerturbMeasurement implements Injector.
func (b RSSIBias) PerturbMeasurement(_ FrameEvent, m radio.Measurement) radio.Measurement {
	m.RSSI += b.BiasDB
	return m
}

// RSSIDrift ramps the reported RSSI linearly with the link's virtual
// clock — thermal drift of the detector over a long experiment.
type RSSIDrift struct {
	Nop
	// RateDBPerSec is the drift slope in dB per second of airtime.
	RateDBPerSec float64
}

// PerturbMeasurement implements Injector.
func (d RSSIDrift) PerturbMeasurement(ev FrameEvent, m radio.Measurement) radio.Measurement {
	m.RSSI += d.RateDBPerSec * ev.Time.Seconds()
	return m
}

// StaleFeedback replays an outdated SSW feedback field: with probability
// P a frame's feedback is replaced by the last feedback this injector saw
// — the firmware race in which a feedback register update loses against
// the frame scheduler.
type StaleFeedback struct {
	Nop
	p    float64
	rng  *stats.RNG
	last dot11ad.SSWFeedbackField
	seen bool
}

// NewStaleFeedback returns a stale-feedback corruptor firing with
// probability p per feedback-carrying frame.
func NewStaleFeedback(p float64, seed int64) *StaleFeedback {
	return &StaleFeedback{p: clamp01(p), rng: stats.NewRNG(seed)}
}

// CorruptFrame implements Injector: only frames that carry a feedback
// field (SSW, SSW-Feedback, SSW-Ack) are candidates.
func (s *StaleFeedback) CorruptFrame(_ FrameEvent, f *dot11ad.Frame) {
	switch f.Type {
	case dot11ad.TypeSSW, dot11ad.TypeSSWFeedback, dot11ad.TypeSSWAck:
	default:
		return
	}
	fresh := f.Feedback
	if s.seen && s.rng.Bool(s.p) {
		f.Feedback = s.last
	}
	s.last, s.seen = fresh, true
}

// RecordStorm drops Burst consecutive firmware measurement records out of
// every Period — the host-visible symptom of an interrupt storm starving
// the ring-buffer writer. Deterministic by construction (no RNG).
type RecordStorm struct {
	Nop
	// Period and Burst are counts of records; every window of Period
	// records loses its first Burst.
	Period, Burst int
	n             int
}

// DropRecord implements Injector.
func (r *RecordStorm) DropRecord() bool {
	if r.Period <= 0 || r.Burst <= 0 {
		return false
	}
	drop := r.n%r.Period < r.Burst
	r.n++
	return drop
}

// WMIFlake fails WMI commands transiently with probability P, modelling
// the firmware mailbox timeouts the patched driver occasionally hits.
// Errors wrap ErrInjected so resilient callers can classify and retry.
type WMIFlake struct {
	Nop
	p   float64
	rng *stats.RNG
}

// NewWMIFlake returns a WMI fault source firing with probability p per
// command.
func NewWMIFlake(p float64, seed int64) *WMIFlake {
	return &WMIFlake{p: clamp01(p), rng: stats.NewRNG(seed)}
}

// WMIError implements Injector.
func (w *WMIFlake) WMIError(cmd uint16) error {
	if !w.rng.Bool(w.p) {
		return nil
	}
	return fmt.Errorf("fault: WMI %#x: %w: mailbox timeout", cmd, ErrInjected)
}

// Standard60GHz bundles the default hostile-channel preset used by the
// fault-sweep evaluation: Gilbert–Elliott loss at the given rate with
// meanBurst-frame bursts, a 1.5 dB RSSI bias, slow RSSI drift, sparse
// stale feedback, occasional record storms and 2% transient WMI
// failures, all seeded deterministically from seed.
func Standard60GHz(lossRate, meanBurst float64, seed int64) Chain {
	return Chain{
		NewGilbertElliott(GEFromLossRate(lossRate, meanBurst), seed),
		RSSIBias{BiasDB: 1.5},
		RSSIDrift{RateDBPerSec: 0.2},
		NewStaleFeedback(0.02, seed+1),
		&RecordStorm{Period: 64, Burst: 2},
		NewWMIFlake(0.02, seed+2),
	}
}

func clamp01(v float64) float64 { return clampF(v, 0, 1) }

func clampF(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	}
	return v
}
