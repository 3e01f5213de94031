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

// Contract suite of the hint (hier.go): a hint adds one refinement
// window, so a hinted selection is the unhinted one bit for bit unless
// its winner lies outside every top-K window (hint-decided), and then
// its quantized score beats the unhinted winner's, or ties it at an
// earlier row-major cell. Hints are chained along tracked trajectories
// exactly as the fleet chains them, and every hinted round is checked
// against the unhinted selection of the same probe vector.

// hintChecker checks hinted rounds on one estimator and tallies them.
type hintChecker struct {
	hinted, decided int
}

// check selects probes with and without hint, holds the pair to the
// hint contract and to the hint-decided counter, and returns the hinted
// result.
func (c *hintChecker) check(t *testing.T, label string, est *Estimator, probes []Probe, hint Cell) BatchResult {
	t.Helper()
	ctx := context.Background()
	sel, err := est.SelectSector(ctx, probes)
	plain := BatchResult{Selection: sel, Err: err}
	hits := metWarmHits.Value()
	res, err := est.SelectSectorBatch(ctx, []BatchItem{{Probes: probes, Hint: hint}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := res[0]
	if hint == NoCell {
		if !identicalResult(got, plain) {
			t.Fatalf("%s: hintless batch item %+v, SelectSector %+v", label, got, plain)
		}
		return got
	}
	c.hinted++
	decided := got.Selection.AoA.Cell != plain.Selection.AoA.Cell
	wantHits := int64(0)
	if decided {
		wantHits = 1
		c.decided++
		en := est.en
		it := quantOf(est, probes)
		ga, ge, _ := got.Selection.AoA.Cell.split()
		pa, pe, _ := plain.Selection.AoA.Cell.split()
		gPt, pPt := ge*len(en.az)+ga, pe*len(en.az)+pa
		gw := jointQ(en.dictQ, en.rowQ, gPt, &it.qv, est.opts.SNROnly)
		pw := jointQ(en.dictQ, en.rowQ, pPt, &it.qv, est.opts.SNROnly)
		if gw < pw || (gw == pw && gPt > pPt) {
			t.Fatalf("%s: hint-decided cell %d scores %v, below the unhinted cell %d's %v", label, gPt, gw, pPt, pw)
		}
	} else if !identicalResult(got, plain) {
		t.Fatalf("%s: hint %v changed the result without deciding the cell:\n hinted %+v\n plain  %+v", label, hint, got, plain)
	}
	if d := metWarmHits.Value() - hits; d != wantHits {
		t.Fatalf("%s: hint-decided counter advanced by %d, want %d", label, d, wantHits)
	}
	return got
}

// TestQuantWarmMatchesColdClean chains hints along seeded clean
// drifting trajectories: each round's hint is the previous hinted
// selection's cell, exactly as the fleet retrain funnel chains them,
// and every hinted round is held to the hint contract against the
// unhinted selection of the same probe vector.
func TestQuantWarmMatchesColdClean(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	model := radio.DefaultMeasurementModel()
	rng := stats.NewRNG(61)
	available := sector.TalonTX()

	hintsBefore := metWarmHints.Value()
	var c hintChecker
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
			res := c.check(t, fmt.Sprintf("traj=%d round=%d", traj, round), est, probes, hint)
			if res.Err != nil {
				hint = NoCell
				continue
			}
			hint = res.Selection.AoA.Cell
			az += drift
		}
	}
	t.Logf("%d hinted rounds, %d hint-decided", c.hinted, c.decided)
	if c.hinted < 150 {
		t.Fatalf("only %d hinted rounds, want >= 150", c.hinted)
	}
	if got := metWarmHints.Value() - hintsBefore; got != int64(c.hinted) {
		t.Fatalf("hint counter advanced by %d over %d hinted rounds", got, c.hinted)
	}
	if c.decided == 0 {
		t.Fatal("no round was hint-decided: the suite never exercised the hint window")
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

	dutPose, probePose := testbed.FacingPoses(3, 1.2)
	dut.SetPose(dutPose)
	probe.SetPose(probePose)
	link := wil.NewLink(channel.Lab(), dut, probe)
	link.SetInjector(fault.Standard60GHz(0.15, 4, 605))

	rng := stats.NewRNG(67)
	available := sector.TalonTX()
	var c hintChecker
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
		res := c.check(t, fmt.Sprintf("trial=%d", trial), est, probes, hint)
		if res.Err != nil {
			hint = NoCell
			continue
		}
		hint = res.Selection.AoA.Cell
	}
	t.Logf("%d hinted rounds, %d hint-decided", c.hinted, c.decided)
	if c.hinted < 150 {
		t.Fatalf("only %d hinted rounds, want >= 150", c.hinted)
	}
}
