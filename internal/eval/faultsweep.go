package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"talon"
	"talon/internal/channel"
	"talon/internal/fault"
	"talon/internal/obs"
	"talon/internal/testbed"
)

// Fault-sweep metrics (see README, "Observability").
var (
	metFaultTrials = obs.NewCounter("eval_fault_trials_total",
		"fault-sweep trials completed")
	metFaultHardErrors = obs.NewCounter("eval_fault_hard_errors_total",
		"fault-sweep trials where the resilient trainer still hard-errored")
)

// FaultSweepConfig parameterizes the fault-injection campaign.
type FaultSweepConfig struct {
	// LossRates lists the stationary Gilbert–Elliott loss rates to
	// sweep (e.g. 0, 0.05, 0.1, 0.2).
	LossRates []float64
	// MeanBurst is the mean loss-burst length in frames (default 4).
	MeanBurst float64
	// Trials is the number of training trials per loss rate (default
	// 50).
	Trials int
	// M is the probe budget per CSS attempt (default talon.DefaultM).
	M int
	// Retries and Backoff configure the resilient trainer's WithRetry
	// (defaults 3 and 1 ms of virtual airtime).
	Retries int
	Backoff time.Duration
	// SNRCheckDB is the WithSNRCheck verification threshold in dB; the
	// check is what lets the trainer notice a bad pick (the channel
	// can silently starve CSS of its informative probes). Zero means
	// the default 8 dB — roughly half the clean peak SNR at the
	// campaign's 3 m pose; negative disables the check.
	SNRCheckDB float64
	// Seed reproduces the whole campaign (impairments and probing).
	Seed int64
}

func (c *FaultSweepConfig) defaults() {
	if len(c.LossRates) == 0 {
		c.LossRates = []float64{0, 0.05, 0.1, 0.2}
	}
	if c.MeanBurst <= 0 {
		c.MeanBurst = 4
	}
	if c.Trials <= 0 {
		c.Trials = 50
	}
	if c.M == 0 {
		c.M = talon.DefaultM
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.SNRCheckDB == 0 {
		c.SNRCheckDB = 8
	}
}

// FaultSweepPoint summarizes all trials at one loss rate.
type FaultSweepPoint struct {
	// LossRate is the configured stationary frame-loss rate.
	LossRate float64
	// Trials is the number of trials run.
	Trials int
	// HardErrors counts trials where the resilient Run still returned
	// an error — the resilience claim is that this stays zero.
	HardErrors int
	// Degraded counts trials that fell back to the full SSW sweep.
	Degraded int
	// Retried counts trials that needed more than one CSS attempt.
	Retried int
	// MedianLossDB is the median SNR loss of the selected sector versus
	// the true-SNR optimum (the no-loss full sweep's choice).
	MedianLossDB float64
	// P95LossDB is the 95th-percentile SNR loss.
	P95LossDB float64
}

// FaultSweepResult reproduces the Section 6.3 SNR-loss evaluation under
// injected channel impairments: at each loss rate the resilient trainer
// (retry + backoff + full-sweep fallback) trains the link and the
// selected sector's true SNR is compared against the optimum.
type FaultSweepResult struct {
	Config FaultSweepConfig
	Points []FaultSweepPoint
}

// FaultSweep runs the fault-injection campaign on p. Trials are serial —
// they share the platform's devices — and deterministic in cfg.Seed: the
// probing subsets, the channel noise and every impairment replay
// identically for identical configurations. The context is observed
// between trials.
func FaultSweep(ctx context.Context, p *Platform, cfg FaultSweepConfig) (*FaultSweepResult, error) {
	cfg.defaults()
	dutPose, probePose := testbed.FacingPoses(3, 1.2)
	p.DUT.SetPose(dutPose)
	p.Probe.SetPose(probePose)

	res := &FaultSweepResult{Config: cfg}
	for ri, rate := range cfg.LossRates {
		point := FaultSweepPoint{LossRate: rate, Trials: cfg.Trials}
		losses := make([]float64, 0, cfg.Trials)
		for trial := 0; trial < cfg.Trials; trial++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			link := newLink(channel.Lab(), p)
			trainSeed := cfg.Seed + int64(ri*cfg.Trials+trial)
			trainer, err := talon.NewTrainer(link, p.Estimator,
				talon.WithM(cfg.M), talon.WithSeed(trainSeed))
			if err != nil {
				return nil, err
			}
			if rate > 0 {
				link.SetInjector(fault.Standard60GHz(rate, cfg.MeanBurst, trainSeed*7919+1))
			}

			opts := []talon.RunOption{talon.WithRetry(cfg.Retries, cfg.Backoff)}
			if cfg.SNRCheckDB > 0 {
				opts = append(opts, talon.WithSNRCheck(cfg.SNRCheckDB))
			}
			out, err := trainer.Run(ctx, p.DUT, p.Probe, opts...)
			// The impairments must not bleed into the oracle below.
			link.SetInjector(nil)
			metFaultTrials.Inc()
			metTrials.Inc()
			if err != nil {
				point.HardErrors++
				metFaultHardErrors.Inc()
				continue
			}
			if out.Degraded() {
				point.Degraded++
			}
			if out.Attempts > 1 {
				point.Retried++
			}
			if loss, ok := trueLoss(link, p, out.Sector); ok {
				losses = append(losses, loss)
			}
		}
		point.MedianLossDB = quantile(losses, 0.5)
		point.P95LossDB = quantile(losses, 0.95)
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// quantile returns the q-quantile of xs (nearest-rank on a sorted copy);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

// Table renders the campaign table.
func (r *FaultSweepResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault sweep: resilient CSS under Gilbert–Elliott loss (mean burst %.0f frames, %d trials/rate, retry %d)\n",
		r.Config.MeanBurst, r.Config.Trials, r.Config.Retries)
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %14s %12s\n",
		"loss rate", "hard err", "degraded", "retried", "median [dB]", "p95 [dB]")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-10.2f %10d %10d %10d %14.2f %12.2f\n",
			pt.LossRate, pt.HardErrors, pt.Degraded, pt.Retried, pt.MedianLossDB, pt.P95LossDB)
	}
	return b.String()
}
