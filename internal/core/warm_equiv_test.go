package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/fault"
	"talon/internal/geom"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/testbed"
	"talon/internal/wil"
)

// Equivalence gate of the warm-start path (warm.go) against the cold
// quantized search, mirroring the quant-vs-oracle suite in
// quant_equiv_test.go: hints chained across a tracked trajectory may
// only change the cost of a selection, never its result beyond the
// same ≤1% sector-divergence / one-coarse-cell-diagonal budget. A
// margin-band case proves the guard actually routes rejected hints
// through the full search bit for bit.

// warmEquivCounter tallies warm-vs-cold divergence on one estimator:
// both calls see identical probes, so error classes must match exactly
// and only selection divergence is budgeted.
type warmEquivCounter struct {
	trials, mismatches int
}

func (c *warmEquivCounter) compare(t *testing.T, label string, est *Estimator, probes []Probe, hint Cell, diag float64) (Selection, error) {
	t.Helper()
	ctx := context.Background()
	cold, cErr := est.SelectSector(ctx, probes)
	aoa, wErr := est.estimate(ctx, probes, hint)
	warm, wErr := est.finishSelection(probes, aoa, wErr)
	if (cErr == nil) != (wErr == nil) {
		t.Fatalf("%s: error parity broken: cold %v, warm %v", label, cErr, wErr)
	}
	if wErr != nil {
		return warm, wErr
	}
	c.trials++
	if warm.Sector != cold.Sector {
		// A different sector only counts against the budget when the warm
		// peak is actually weaker: the cold hierarchical search is itself
		// an approximation of the dense argmax, so a warm winner with
		// equal-or-higher correlation is a legitimate peak the coarse
		// sweep skipped, not a tracking loss.
		if warm.AoA.Corr < cold.AoA.Corr {
			c.mismatches++
		}
		t.Logf("%s: sector diverged: warm %d (az %.1f el %.1f corr %.4f), cold %d (az %.1f el %.1f corr %.4f)",
			label, warm.Sector, warm.AoA.Az, warm.AoA.El, warm.AoA.Corr,
			cold.Sector, cold.AoA.Az, cold.AoA.El, cold.AoA.Corr)
		return warm, nil
	}
	if !warm.Fallback && !cold.Fallback {
		dAz := math.Abs(geom.WrapAz(warm.AoA.Az - cold.AoA.Az))
		dEl := math.Abs(warm.AoA.El - cold.AoA.El)
		if math.Hypot(dAz, dEl) > diag {
			c.mismatches++
			t.Logf("%s: AoA diverged beyond %.1f°: warm (az %.1f el %.1f), cold (az %.1f el %.1f)",
				label, diag, warm.AoA.Az, warm.AoA.El, cold.AoA.Az, cold.AoA.El)
		}
	}
	return warm, nil
}

func (c *warmEquivCounter) assertRate(t *testing.T, minTrials int) {
	t.Helper()
	if c.trials < minTrials {
		t.Fatalf("only %d successful warm equivalence trials, want >= %d", c.trials, minTrials)
	}
	budget := c.trials / 100
	if c.mismatches > budget {
		t.Fatalf("warm-start diverged from the cold search on %d of %d trials (budget %d)",
			c.mismatches, c.trials, budget)
	}
}

// TestQuantWarmMatchesColdClean chains warm-start hints along seeded
// clean drifting trajectories: each round's hint is the previous warm
// selection's cell, exactly as the fleet retrain funnel chains them,
// and every round is compared against a cold selection of the same
// probe vector.
func TestQuantWarmMatchesColdClean(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diag := coarseDiag(t, est)
	model := radio.DefaultMeasurementModel()
	rng := stats.NewRNG(61)
	available := sector.TalonTX()

	hintsBefore, hitsBefore := metWarmHints.Value(), metWarmHits.Value()
	var c warmEquivCounter
	for traj := 0; traj < 15; traj++ {
		az := -65 + 130*rng.Float64()
		el := 4 + 20*rng.Float64()
		drift := rng.Uniform(-1.5, 1.5) // degrees of azimuth per round
		hint := NoCell
		for round := 0; round < 12; round++ {
			ps, err := RandomProbes(rng, available, 14)
			if err != nil {
				t.Fatal(err)
			}
			probes := observe(t, gain, ps.IDs(), az, el, model, rng)
			warm, err := c.compare(t, fmt.Sprintf("traj=%d round=%d", traj, round), est, probes, hint, diag)
			if err != nil {
				hint = NoCell
				continue
			}
			hint = warm.AoA.Cell
			az += drift
		}
	}
	c.assertRate(t, 170)
	if metWarmHints.Value() == hintsBefore {
		t.Fatal("no trial exercised the warm-start path")
	}
	if metWarmHits.Value() == hitsBefore {
		t.Fatal("no hinted trial was accepted by the warm window — the suite only covered the fallback")
	}
}

// TestQuantWarmMatchesColdFaultyChannel repeats the chained-hint suite
// over a real simulated link with the fault.Standard60GHz impairment
// chain injected, walking the probe device along an arc so consecutive
// rounds form a genuine tracking trajectory through burst loss, RSSI
// drift and stale feedback.
func TestQuantWarmMatchesColdFaultyChannel(t *testing.T) {
	dut, err := wil.NewDevice(wil.Config{
		Name: "warm-dut",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x41},
		Seed: 602,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := wil.NewDevice(wil.Config{
		Name: "warm-probe",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x42},
		Seed: 603,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dut.Jailbreak(); err != nil {
		t.Fatal(err)
	}
	if err := probe.Jailbreak(); err != nil {
		t.Fatal(err)
	}
	grid, err := geom.UniformGrid(-70, 70, 5, 0, 24, 6)
	if err != nil {
		t.Fatal(err)
	}
	chamber := wil.NewLink(channel.AnechoicChamber(), dut, probe)
	campaign := testbed.NewChamberCampaign(chamber, dut, probe, 604)
	campaign.Repeats = 1
	patterns, err := campaign.MeasureAllPatterns(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diag := coarseDiag(t, est)

	dutPose, probePose := testbed.FacingPoses(3, 1.2)
	dut.SetPose(dutPose)
	probe.SetPose(probePose)
	link := wil.NewLink(channel.Lab(), dut, probe)
	link.SetInjector(fault.Standard60GHz(0.15, 4, 605))

	rng := stats.NewRNG(67)
	available := sector.TalonTX()
	var c warmEquivCounter
	hint := NoCell
	for trial := 0; trial < 170; trial++ {
		// A slow arc sweep: consecutive trials stay within a couple of
		// degrees, so chained hints describe a tracked station.
		az := -55 + 110*float64(trial)/170
		rad := az * math.Pi / 180
		pose := probePose
		pose.Pos.X = dutPose.Pos.X + 3*math.Cos(rad)
		pose.Pos.Y = dutPose.Pos.Y + 3*math.Sin(rad)
		pose.Yaw = 180 + az
		probe.SetPose(pose)

		ps, err := RandomProbes(rng, available, 14)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := link.RunTXSS(dut, probe, dot11ad.SubSweepSchedule(ps))
		if err != nil {
			// An injected transient fault killed the whole sweep; the
			// fleet would fail this round and restart cold.
			hint = NoCell
			continue
		}
		probes := ProbesFromMeasurements(ps.IDs(), meas)
		warm, err := c.compare(t, fmt.Sprintf("trial=%d", trial), est, probes, hint, diag)
		if err != nil {
			hint = NoCell
			continue
		}
		hint = warm.AoA.Cell
	}
	c.assertRate(t, 139)
}

// quantWindowBest returns the quantized best score of the warm window
// around hint — the score the margin guard tests — or -1 when the probes
// cannot be estimated at all.
func quantWindowBest(est *Estimator, probes []Probe, hint Cell) float64 {
	it := &quantItem{}
	if est.gatherQuant(it, probes); it.reported < 2 {
		return -1
	}
	it.quantize()
	var s scanScratch
	s.grow(est.en)
	_, _, w, _ := est.en.warmArgmaxQ(&s, &it.qv, hint, est.opts.SNROnly)
	return w
}

// TestQuantWarmMarginFallback drives the margin guard with input: noisy,
// outlier-heavy sub-sweeps whose correlation surfaces peak weakly. On
// every trial whose quantized window best lies in [fallbackCorr,
// warmThreshold) — a score the fallback threshold would accept but the
// warm margin must not — a hint at the cold selection's own cell must
// be rejected, count exactly one fallback, and reproduce the cold
// selection bit for bit.
func TestQuantWarmMarginFallback(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(71)
	model := radio.DefaultMeasurementModel()
	model.SNRNoiseStdDB, model.RSSINoiseStdDB = 3, 3
	model.OutlierProb = 0.15
	available := sector.TalonTX()
	ctx := context.Background()

	checked := 0
	for trial := 0; trial < 400; trial++ {
		ps, err := RandomProbes(rng, available, 8)
		if err != nil {
			t.Fatal(err)
		}
		az := -70 + 140*rng.Float64()
		probes := observe(t, gain, ps.IDs(), az, 28*rng.Float64(), model, rng)
		cold, cErr := est.SelectSector(ctx, probes)
		if cErr != nil || cold.AoA.Cell == NoCell {
			continue
		}
		if w := quantWindowBest(est, probes, cold.AoA.Cell); w < fallbackCorr || w >= warmThreshold {
			continue
		}
		hintsBefore, hitsBefore, fallsBefore := metWarmHints.Value(), metWarmHits.Value(), metWarmFallbacks.Value()
		aoa, wErr := est.estimate(ctx, probes, cold.AoA.Cell)
		warm, wErr := est.finishSelection(probes, aoa, wErr)
		if wErr != nil {
			t.Fatalf("trial=%d: warm errored where cold succeeded: %v", trial, wErr)
		}
		if metWarmHints.Value() != hintsBefore+1 {
			t.Fatalf("trial=%d: hint was not counted", trial)
		}
		if metWarmHits.Value() != hitsBefore {
			t.Fatalf("trial=%d: a window best below the margin was accepted", trial)
		}
		if metWarmFallbacks.Value() != fallsBefore+1 {
			t.Fatalf("trial=%d: margin rejection did not count a fallback", trial)
		}
		if !sameSelection(warm, cold) {
			t.Fatalf("trial=%d: fallback selection differs from cold:\n warm %+v\n cold %+v", trial, warm, cold)
		}
		checked++
	}
	t.Logf("%d margin-band trials", checked)
	if checked < 20 {
		t.Fatalf("only %d trials landed in the margin band [%.2f, %.2f)", checked, fallbackCorr, warmThreshold)
	}
}
