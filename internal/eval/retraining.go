package eval

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"talon/internal/channel"
	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/mcs"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/testbed"
	"talon/internal/wil"
)

// RetrainingPoint is one (policy, cadence) cell of the study.
type RetrainingPoint struct {
	Policy       string
	Interval     time.Duration
	MeanLossDB   float64
	MeanMbps     float64
	ProbesPerSec float64
}

// RetrainingResult quantifies the Section 7 discussion: under mobility,
// compressive training's short airtime lets a node retrain much more
// often than the stock sweep at the same airtime budget, tracking the
// moving peer more closely.
type RetrainingResult struct {
	DegPerSec float64
	Points    []RetrainingPoint
}

const (
	// orbitRadius is the receiver's distance from the transmitter, in
	// meters, while it orbits.
	orbitRadius = 3
	// retrainEvalStep samples link quality between trainings.
	retrainEvalStep = 100 * time.Millisecond
)

// RetrainingStudy orbits the receiver around the transmitter at
// degPerSec and runs the stock sweep and CSS at several retraining
// cadences over the same trajectory. ctx cancels the study between
// training intervals.
func RetrainingStudy(ctx context.Context, p *Platform, degPerSec float64, duration time.Duration, rng *stats.RNG) (*RetrainingResult, error) {
	if duration <= 0 {
		duration = 20 * time.Second
	}
	dutPose, probePose := testbed.FacingPoses(3, 1.2)
	p.DUT.SetPose(dutPose)
	p.Probe.SetPose(probePose)
	link := newLink(channel.Lab(), p)
	res := &RetrainingResult{DegPerSec: degPerSec}

	variants := []struct {
		policy   retrainPolicy
		interval time.Duration
	}{
		{retrainPolicy{}, time.Second},
		{retrainPolicy{}, 250 * time.Millisecond},
		{retrainPolicy{probes: 14, rng: rng.Split("css-1s")}, time.Second},
		{retrainPolicy{probes: 14, rng: rng.Split("css-250ms")}, 250 * time.Millisecond},
		{retrainPolicy{probes: 14, rng: rng.Split("css-100ms")}, 100 * time.Millisecond},
		{retrainPolicy{probes: 14, ensemble: true, rng: rng.Split("css-ens-250ms")}, 250 * time.Millisecond},
	}
	for _, v := range variants {
		pt, err := simulateRetraining(ctx, p, link, v.policy, v.interval, duration, degPerSec)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// retrainPolicy is how one training round runs: the stock full sweep
// when probes is 0, otherwise CSS with that probe budget. With ensemble
// set, CSS estimates the measurement vector together with every
// leave-one-out resample of it and adopts the majority sector: a single
// corrupted reading can only swing one member, and the resamples reuse
// the same over-the-air probes.
type retrainPolicy struct {
	probes   int
	ensemble bool
	// rng draws the CSS probing subsets.
	rng *stats.RNG
}

func (pol retrainPolicy) name() string {
	switch {
	case pol.probes == 0:
		return "SSW"
	case pol.ensemble:
		return fmt.Sprintf("CSS-%d-ens", pol.probes)
	}
	return fmt.Sprintf("CSS-%d", pol.probes)
}

// cost is the number of over-the-air probes one round spends; a failed
// round is billed it too.
func (pol retrainPolicy) cost() int {
	if pol.probes == 0 {
		return len(sector.TalonTX())
	}
	return pol.probes
}

// train probes link from p's DUT to its probe device and returns the
// chosen transmit sector.
func (pol retrainPolicy) train(ctx context.Context, p *Platform, link *wil.Link) (sector.ID, error) {
	tx, rx := p.DUT, p.Probe
	if pol.probes == 0 {
		meas, err := link.RunTXSS(tx, rx, dot11ad.SweepSchedule())
		if err != nil {
			return 0, err
		}
		id, ok := core.SweepSelect(core.ProbesFromMeasurements(sector.TalonTX(), meas))
		if !ok {
			return 0, fmt.Errorf("eval: sweep produced no measurements")
		}
		return id, nil
	}
	probeSet, err := core.RandomProbes(pol.rng, sector.TalonTX(), pol.probes)
	if err != nil {
		return 0, err
	}
	meas, err := link.RunTXSS(tx, rx, dot11ad.SubSweepSchedule(probeSet))
	if err != nil {
		return 0, err
	}
	probes := core.ProbesFromMeasurements(probeSet.IDs(), meas)
	if !pol.ensemble {
		sel, err := p.Estimator.SelectSector(ctx, probes)
		if err != nil {
			return 0, err
		}
		return sel.Sector, nil
	}

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
		return 0, err
	}
	if results[0].Err != nil {
		// Without a full-vector selection the round fails outright; the
		// resamples carry strictly less information.
		return 0, results[0].Err
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
	return best, nil
}

// simulateRetraining runs link for duration while p's probe device
// orbits its DUT at degPerSec: every interval the policy retrains, and between
// trainings the link's throughput is sampled every retrainEvalStep from
// the selected sector's true SNR minus the training airtime overhead,
// while the selection goes stale. A failed training keeps the previous
// sector in use. ctx is observed between training intervals.
func simulateRetraining(ctx context.Context, p *Platform, link *wil.Link, pol retrainPolicy, interval, duration time.Duration, degPerSec float64) (RetrainingPoint, error) {
	tx, rx := p.DUT, p.Probe
	model := mcs.DefaultThroughputModel()
	model.TrainingInterval = interval
	cost := pol.cost()
	trainTime := dot11ad.MutualTrainingTime(cost)

	var current sector.ID
	haveSector := false
	lossSum, lossN := 0.0, 0
	tpSum, samples := 0.0, 0
	totalProbes := 0
	for t := time.Duration(0); t < duration; t += interval {
		if err := ctx.Err(); err != nil {
			return RetrainingPoint{}, err
		}
		orbit(tx, rx, degPerSec, t)
		id, err := pol.train(ctx, p, link)
		totalProbes += cost
		if err == nil {
			current, haveSector = id, true
		}
		for te := t; te < t+interval && te < duration; te += retrainEvalStep {
			orbit(tx, rx, degPerSec, te)
			samples++
			if !haveSector {
				continue
			}
			gt := link.GroundTruth(tx, rx)
			trueSNR, optimalSNR := gt.SNR(current), bestSNR(gt)
			tpSum += model.AppThroughputMbps(trueSNR, trainTime)
			if !math.IsInf(trueSNR, -1) && !math.IsInf(optimalSNR, -1) {
				lossSum += optimalSNR - trueSNR
				lossN++
			}
		}
	}
	pt := RetrainingPoint{
		Policy:       pol.name(),
		Interval:     interval,
		ProbesPerSec: float64(totalProbes) / duration.Seconds(),
	}
	if samples > 0 {
		pt.MeanMbps = tpSum / float64(samples)
	}
	if lossN > 0 {
		pt.MeanLossDB = lossSum / float64(lossN)
	}
	return pt, nil
}

// orbit places rx on an orbitRadius-meter arc around tx at the time t of
// a swing at degPerSec back and forth over ±60°, facing tx: the
// rotating head of the tracking experiments.
func orbit(tx, rx *wil.Device, degPerSec float64, t time.Duration) {
	az := math.Mod(degPerSec*t.Seconds(), 240)
	if az > 120 {
		az = 240 - az
	}
	az -= 60
	pose := rx.Pose()
	rad := az * math.Pi / 180
	pose.Pos.X = tx.Pose().Pos.X + orbitRadius*math.Cos(rad)
	pose.Pos.Y = tx.Pose().Pos.Y + orbitRadius*math.Sin(rad)
	pose.Yaw = 180 + az
	rx.SetPose(pose)
}

// Table renders the study.
func (r *RetrainingResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Retraining-cadence study (Section 7): receiver orbiting at %.0f°/s\n", r.DegPerSec)
	fmt.Fprintf(&b, "%-8s %10s %12s %14s %12s\n", "policy", "cadence", "loss [dB]", "tput [Mbps]", "probes/s")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-8s %10v %12.2f %14.0f %12.0f\n",
			pt.Policy, pt.Interval, pt.MeanLossDB, pt.MeanMbps, pt.ProbesPerSec)
	}
	return b.String()
}
