// Package session simulates a live link over time: periodic beamtraining
// (stock sweep or compressive), data transfer in between, and device
// mobility. It quantifies the Section 7 discussion — shorter trainings
// can run more often without degrading throughput, which is what makes
// compressive selection attractive for mobile mm-wave scenarios.
package session

import (
	"context"
	"fmt"
	"math"
	"time"

	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/mcs"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/wil"
)

// Outcome is the typed result of one training round.
type Outcome struct {
	// Sector is the chosen transmit sector.
	Sector sector.ID `json:"sector"`
	// Probes is the number of over-the-air probes the round spent.
	Probes int `json:"probes"`
}

// Policy decides how one training round runs.
type Policy interface {
	// Name labels the policy in results.
	Name() string
	// Train probes the link from tx to rx and returns the round's
	// Outcome. On error the Outcome still carries the probes spent, so
	// failed rounds are billed their airtime. ctx cancels the
	// underlying estimation.
	Train(ctx context.Context, link *wil.Link, tx, rx *wil.Device) (Outcome, error)
}

// SSWPolicy is the stock full sector sweep.
type SSWPolicy struct{}

// Name implements Policy.
func (SSWPolicy) Name() string { return "SSW" }

// Train implements Policy: probe everything, pick the reported argmax.
func (SSWPolicy) Train(ctx context.Context, link *wil.Link, tx, rx *wil.Device) (Outcome, error) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	meas, err := link.RunTXSS(tx, rx, dot11ad.SweepSchedule())
	if err != nil {
		return Outcome{}, err
	}
	id, ok := core.SweepSelect(core.ProbesFromMeasurements(sector.TalonTX(), meas))
	if !ok {
		return Outcome{Probes: 34}, fmt.Errorf("session: sweep produced no measurements")
	}
	return Outcome{Sector: id, Probes: 34}, nil
}

// CSSPolicy is compressive sector selection with a fixed probe budget.
type CSSPolicy struct {
	// Estimator must be built from tx's measured patterns.
	Estimator *core.Estimator
	// M is the probe budget.
	M int
	// RNG draws the probing subsets.
	RNG *stats.RNG
}

// Name implements Policy.
func (p *CSSPolicy) Name() string { return fmt.Sprintf("CSS-%d", p.M) }

// Train implements Policy.
func (p *CSSPolicy) Train(ctx context.Context, link *wil.Link, tx, rx *wil.Device) (Outcome, error) {
	probeSet, err := core.RandomProbes(p.RNG, sector.TalonTX(), p.M)
	if err != nil {
		return Outcome{}, err
	}
	meas, err := link.RunTXSS(tx, rx, dot11ad.SubSweepSchedule(probeSet))
	if err != nil {
		return Outcome{}, err
	}
	probes := core.ProbesFromMeasurements(probeSet.IDs(), meas)
	sel, err := p.Estimator.SelectSector(ctx, probes)
	if err != nil {
		return Outcome{Probes: p.M}, err
	}
	return Outcome{Sector: sel.Sector, Probes: p.M}, nil
}

// EnsembleCSSPolicy is compressive selection hardened by a leave-one-out
// ensemble: one probing round, then the full measurement vector plus
// every leave-one-out resample of it are estimated together through the
// batched estimation path, and the round adopts the majority sector.
// A single corrupted reading can only swing one ensemble member, so the
// vote damps the outlier sensitivity of plain CSS at zero extra airtime
// — the resamples reuse the same over-the-air probes, and the batch API
// keeps the extra estimates off the per-call fan-out path.
type EnsembleCSSPolicy struct {
	// Estimator must be built from tx's measured patterns.
	Estimator *core.Estimator
	// M is the probe budget.
	M int
	// RNG draws the probing subsets.
	RNG *stats.RNG
}

// Name implements Policy.
func (p *EnsembleCSSPolicy) Name() string { return fmt.Sprintf("CSS-%d-ens", p.M) }

// Train implements Policy.
func (p *EnsembleCSSPolicy) Train(ctx context.Context, link *wil.Link, tx, rx *wil.Device) (Outcome, error) {
	probeSet, err := core.RandomProbes(p.RNG, sector.TalonTX(), p.M)
	if err != nil {
		return Outcome{}, err
	}
	meas, err := link.RunTXSS(tx, rx, dot11ad.SubSweepSchedule(probeSet))
	if err != nil {
		return Outcome{}, err
	}
	probes := core.ProbesFromMeasurements(probeSet.IDs(), meas)

	// Item 0 is the full vector; items 1..n drop one reported probe each.
	batch := make([][]core.Probe, 0, len(probes)+1)
	batch = append(batch, probes)
	for i := range probes {
		if !probes[i].OK {
			continue
		}
		loo := make([]core.Probe, len(probes))
		copy(loo, probes)
		loo[i].OK = false
		batch = append(batch, loo)
	}
	results, err := p.Estimator.SelectSectorBatch(ctx, core.BatchOf(batch), 0)
	if err != nil {
		return Outcome{Probes: p.M}, err
	}
	if results[0].Err != nil {
		// Without a full-vector selection the round fails outright; the
		// resamples carry strictly less information.
		return Outcome{Probes: p.M}, results[0].Err
	}
	// Majority vote; ties go to the full-vector selection, then to the
	// lower sector ID, so the outcome is deterministic.
	var votes [256]int
	for _, r := range results {
		if r.Err == nil {
			votes[r.Selection.Sector]++
		}
	}
	best := results[0].Selection.Sector
	for id := range votes {
		if votes[id] > votes[best] {
			best = sector.ID(id)
		}
	}
	return Outcome{Sector: best, Probes: p.M}, nil
}

// config shapes a session run; callers set it through Options.
type config struct {
	duration         time.Duration
	trainingInterval time.Duration
	mobility         func(t time.Duration, tx, rx *wil.Device)
	evalStep         time.Duration
}

// Option configures Run, matching the Trainer.Run(...RunOption) idiom of
// the public API.
type Option func(*config)

// WithDuration sets the simulated time span. Every session needs one;
// Run rejects non-positive durations.
func WithDuration(d time.Duration) Option {
	return func(c *config) { c.duration = d }
}

// WithTrainingInterval sets the retraining period (default: the stock
// firmware's once-per-second cadence).
func WithTrainingInterval(d time.Duration) Option {
	return func(c *config) { c.trainingInterval = d }
}

// WithMobility installs a mobility function, called with the elapsed
// time before every training and every evaluation step; it may
// reposition the devices. Motion between trainings makes the previous
// selection stale — the effect that rewards frequent retraining.
func WithMobility(f func(t time.Duration, tx, rx *wil.Device)) Option {
	return func(c *config) { c.mobility = f }
}

// WithEvalStep sets the sampling period of link quality between
// trainings; it defaults to a quarter of the training interval (at most
// 250 ms).
func WithEvalStep(d time.Duration) Option {
	return func(c *config) { c.evalStep = d }
}

// Point is one training interval of the session.
type Point struct {
	// T is the interval's start time.
	T time.Duration
	// Sector is the transmit sector in use.
	Sector sector.ID
	// TrueSNR and OptimalSNR are the selected sector's and the best
	// sector's noiseless SNR.
	TrueSNR, OptimalSNR float64
	// ThroughputMbps is the interval's expected application throughput.
	ThroughputMbps float64
	// Probes is the training cost of this interval.
	Probes int
	// TrainFailed marks intervals whose training produced no selection
	// (the previous sector stays in use).
	TrainFailed bool
}

// Result summarizes a session.
type Result struct {
	Policy string
	Points []Point
	// MeanThroughputMbps averages the per-interval throughputs.
	MeanThroughputMbps float64
	// MeanLossDB averages trueSNR(optimal) − trueSNR(selected).
	MeanLossDB float64
	// TotalProbes sums the training cost.
	TotalProbes int
}

// Run simulates the session: every training interval the policy retrains
// (after the mobility function moved the devices), and the interval's
// throughput is computed from the selected sector's true SNR minus the
// training airtime overhead. The session's shape comes from Options:
//
//	res, err := session.Run(ctx, link, tx, rx, policy,
//		session.WithDuration(20*time.Second),
//		session.WithTrainingInterval(250*time.Millisecond),
//		session.WithMobility(session.OrbitMobility(3, 12)))
//
// ctx is observed between training intervals; a cancelled session
// returns ctx.Err().
func Run(ctx context.Context, link *wil.Link, tx, rx *wil.Device, policy Policy, opts ...Option) (*Result, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.duration <= 0 {
		return nil, fmt.Errorf("session: duration must be positive (set WithDuration)")
	}
	if cfg.trainingInterval <= 0 {
		cfg.trainingInterval = dot11ad.SweepInterval
	}
	model := mcs.DefaultThroughputModel()
	model.TrainingInterval = cfg.trainingInterval
	evalStep := cfg.evalStep
	if evalStep <= 0 {
		evalStep = cfg.trainingInterval / 4
		if evalStep > 250*time.Millisecond {
			evalStep = 250 * time.Millisecond
		}
	}
	if evalStep > cfg.trainingInterval {
		evalStep = cfg.trainingInterval
	}

	res := &Result{Policy: policy.Name()}
	var current sector.ID
	haveSector := false
	lossSum, lossN := 0.0, 0
	tpSum := 0.0
	for t := time.Duration(0); t < cfg.duration; t += cfg.trainingInterval {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cfg.mobility != nil {
			cfg.mobility(t, tx, rx)
		}
		out, err := policy.Train(ctx, link, tx, rx)
		res.TotalProbes += out.Probes
		trainFailed := err != nil
		if !trainFailed {
			current, haveSector = out.Sector, true
		}
		trainTime := dot11ad.MutualTrainingTime(out.Probes)

		// Sample link quality across the interval while the devices
		// keep moving and the selection goes stale.
		for te := t; te < t+cfg.trainingInterval && te < cfg.duration; te += evalStep {
			if cfg.mobility != nil {
				cfg.mobility(te, tx, rx)
			}
			pt := Point{T: te, Probes: out.Probes, TrainFailed: trainFailed}
			if !haveSector {
				res.Points = append(res.Points, pt)
				continue
			}
			pt.Sector = current
			pt.TrueSNR = link.TrueSNR(tx, rx, current)
			pt.OptimalSNR = math.Inf(-1)
			for _, sid := range sector.TalonTX() {
				if snr := link.TrueSNR(tx, rx, sid); snr > pt.OptimalSNR {
					pt.OptimalSNR = snr
				}
			}
			pt.ThroughputMbps = model.AppThroughputMbps(pt.TrueSNR, trainTime)
			tpSum += pt.ThroughputMbps
			if !math.IsInf(pt.TrueSNR, -1) && !math.IsInf(pt.OptimalSNR, -1) {
				lossSum += pt.OptimalSNR - pt.TrueSNR
				lossN++
			}
			res.Points = append(res.Points, pt)
		}
	}
	if len(res.Points) > 0 {
		res.MeanThroughputMbps = tpSum / float64(len(res.Points))
	}
	if lossN > 0 {
		res.MeanLossDB = lossSum / float64(lossN)
	}
	return res, nil
}

// OrbitMobility returns a mobility function that swings the receiver on
// a radius-meter arc around the transmitter at degPerSec, the rotating
// head of the tracking experiments.
func OrbitMobility(radius, degPerSec float64) func(t time.Duration, tx, rx *wil.Device) {
	return func(t time.Duration, tx, rx *wil.Device) {
		az := degPerSec * t.Seconds()
		// Swing back and forth over ±60°.
		az = math.Mod(az, 240)
		if az > 120 {
			az = 240 - az
		}
		az -= 60
		pose := rx.Pose()
		rad := az * math.Pi / 180
		pose.Pos.X = tx.Pose().Pos.X + radius*math.Cos(rad)
		pose.Pos.Y = tx.Pose().Pos.Y + radius*math.Sin(rad)
		pose.Yaw = 180 + az
		rx.SetPose(pose)
	}
}
