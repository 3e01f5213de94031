package core

import (
	"context"
	"errors"
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

// coarseDiag is the diagonal of one coarse cell of est's hierarchical
// search, in degrees — the equivalence bound of the ISSUE's acceptance
// criteria.
func coarseDiag(t testing.TB, est *Estimator) float64 {
	t.Helper()
	en := est.en
	if !en.hier() {
		t.Fatal("estimator has no hierarchical search built")
	}
	azStep := en.az[1] - en.az[0]
	elStep := 0.0
	if len(en.el) > 1 {
		elStep = en.el[1] - en.el[0]
	}
	return math.Hypot(float64(coarseDecim)*azStep, float64(coarseDecim)*elStep)
}

// selector is one side of an equivalence comparison: a production
// selection path or the serial oracle.
type selector func(probes []Probe) (Selection, error)

// production selects on est's default path (SelectSector).
func production(est *Estimator) selector {
	return func(probes []Probe) (Selection, error) {
		return est.SelectSector(context.Background(), probes)
	}
}

// oracle selects on est's float64 serial reference (selectSectorSerial).
func oracle(est *Estimator) selector { return est.selectSectorSerial }

// equivCounter tallies one equivalence comparison between two selection
// paths; name labels the pair in logs and failures.
type equivCounter struct {
	name               string
	trials, mismatches int
}

// compare checks one probe vector on both paths: error classes must
// agree exactly; on success the selected sector must match and the AoA
// estimates must stay within diag degrees.
func (c *equivCounter) compare(t *testing.T, label string, got, want selector, probes []Probe, diag float64) {
	t.Helper()
	gSel, gErr := got(probes)
	wSel, wErr := want(probes)
	if !sameErrClass(gErr, wErr) {
		t.Fatalf("%s %s: error parity broken: %v vs %v", c.name, label, gErr, wErr)
	}
	if gErr != nil {
		return
	}
	c.trials++
	if gSel.Sector != wSel.Sector {
		c.mismatches++
		return
	}
	if !gSel.Fallback && !wSel.Fallback {
		dAz := math.Abs(geom.WrapAz(gSel.AoA.Az - wSel.AoA.Az))
		dEl := math.Abs(gSel.AoA.El - wSel.AoA.El)
		if math.Hypot(dAz, dEl) > diag {
			c.mismatches++
		}
	}
}

// assertRate enforces the acceptance criterion: the two paths must agree
// on at least 99% of the trials.
func (c *equivCounter) assertRate(t *testing.T, minTrials int) {
	t.Helper()
	if c.trials < minTrials {
		t.Fatalf("%s: only %d successful equivalence trials, want >= %d", c.name, c.trials, minTrials)
	}
	budget := c.trials / 100
	if c.mismatches > budget {
		t.Fatalf("%s: diverged on %d of %d trials (budget %d)", c.name, c.mismatches, c.trials, budget)
	}
	t.Logf("%s: %d trials, %d divergences", c.name, c.trials, c.mismatches)
}

// The hier suite is the top-K gate: it isolates the hierarchical search
// (the default options) against the exhaustive scan (ExactSearch) on the
// same quantized arithmetic, so any divergence is a coarse candidate the
// top-K pruning dropped. The production kernel's gate against the
// float64 serial oracle is quant_equiv_test.go.

// TestHierMatchesExhaustiveClean runs the seeded clean-channel
// equivalence suite: across probe budgets and noisy observations from
// the default firmware defect model, the hierarchical search must select
// the exhaustive search's sector and land within one coarse-cell
// diagonal of its angle estimate.
func TestHierMatchesExhaustiveClean(t *testing.T) {
	set, gain := synthSetup(t)
	hier, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewEstimator(set, Options{ExactSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !hier.en.hier() {
		t.Fatal("default options did not build the hierarchical search")
	}
	if exact.en.hier() {
		t.Fatal("ExactSearch built a coarse dictionary")
	}
	diag := coarseDiag(t, hier)

	quantBefore := metQuantEstimates.Value()
	model := radio.DefaultMeasurementModel()
	rng := stats.NewRNG(23)
	available := sector.TalonTX()
	c := equivCounter{name: "hier-vs-exact"}
	for _, m := range []int{8, 14, 24} {
		for trial := 0; trial < 40; trial++ {
			ps, err := RandomProbes(rng, available, m)
			if err != nil {
				t.Fatal(err)
			}
			az := -78 + 156*rng.Float64()
			el := 28 * rng.Float64()
			probes := observe(t, gain, ps.IDs(), az, el, model, rng)
			c.compare(t, fmt.Sprintf("m=%d trial=%d", m, trial), production(hier), production(exact), probes, diag)
		}
	}
	c.assertRate(t, 100)
	if metQuantEstimates.Value() == quantBefore {
		t.Fatal("no estimate was served by the quantized kernel")
	}
}

// TestHierMatchesExhaustiveFaultyChannel repeats the equivalence suite
// on probe vectors produced by a real simulated link — patterns measured
// by the chamber campaign, probing sweeps run over a lab channel with
// the fault.Standard60GHz impairment chain (burst loss, RSSI drift,
// stale feedback, ring drops, transient WMI faults) injected.
func TestHierMatchesExhaustiveFaultyChannel(t *testing.T) {
	dut, err := wil.NewDevice(wil.Config{
		Name: "hier-dut",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x21},
		Seed: 402,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := wil.NewDevice(wil.Config{
		Name: "hier-probe",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x22},
		Seed: 403,
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
	campaign := testbed.NewChamberCampaign(chamber, dut, probe, 404)
	campaign.Repeats = 1
	patterns, err := campaign.MeasureAllPatterns(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := NewEstimator(patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewEstimator(patterns, Options{ExactSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	diag := coarseDiag(t, hier)

	dutPose, probePose := testbed.FacingPoses(3, 1.2)
	dut.SetPose(dutPose)
	probe.SetPose(probePose)
	link := wil.NewLink(channel.Lab(), dut, probe)
	link.SetInjector(fault.Standard60GHz(0.15, 4, 405))

	rng := stats.NewRNG(29)
	available := sector.TalonTX()
	c := equivCounter{name: "hier-vs-exact"}
	for trial := 0; trial < 140; trial++ {
		// Swing the probe device on an arc so trials cover directions.
		az := -60 + 120*rng.Float64()
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
			// An injected transient fault killed the whole sweep before
			// estimation; nothing to compare on this trial.
			continue
		}
		probes := ProbesFromMeasurements(ps.IDs(), meas)
		c.compare(t, fmt.Sprintf("trial=%d", trial), production(hier), production(exact), probes, diag)
	}
	c.assertRate(t, 100)
}

// TestHierDegenerateSurface checks the exhaustive fallback: with only
// two reported probes the Pearson correlation is zero at every grid
// point, the coarse pass keeps no candidate, and the hierarchical path
// must degrade to the exhaustive scan and fail with the same
// ErrDegenerateSurface sentinel as exact mode.
func TestHierDegenerateSurface(t *testing.T) {
	set, _ := synthSetup(t)
	hier, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewEstimator(set, Options{ExactSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := sector.TalonTX()
	probes := []Probe{
		{Sector: ids[0], Meas: radio.Measurement{SNR: 7, RSSI: -55}, OK: true},
		{Sector: ids[5], Meas: radio.Measurement{SNR: 9, RSSI: -52}, OK: true},
	}
	fallbacksBefore := metQuantFallbacks.Value()
	_, hErr := hier.estimate(context.Background(), probes)
	_, xErr := exact.estimate(context.Background(), probes)
	if !errors.Is(hErr, ErrDegenerateSurface) {
		t.Fatalf("hier: want ErrDegenerateSurface, got %v", hErr)
	}
	if !errors.Is(xErr, ErrDegenerateSurface) {
		t.Fatalf("exact: want ErrDegenerateSurface, got %v", xErr)
	}
	if metQuantFallbacks.Value() == fallbacksBefore {
		t.Fatal("degenerate surface did not route through the exhaustive fallback")
	}
}

// TestHierMinimumProbes pins the minimum-probes edge cases: one reported
// probe is rejected by both paths with ErrTooFewProbes, two reported
// probes pass the gate but yield a degenerate surface on both paths
// (Pearson correlation needs three components), and three probes — the
// smallest estimable vector — must produce the same selection.
func TestHierMinimumProbes(t *testing.T) {
	set, gain := synthSetup(t)
	hier, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewEstimator(set, Options{ExactSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	diag := coarseDiag(t, hier)
	rng := stats.NewRNG(31)
	model := quietModel()
	ids := sector.TalonTX()

	for n := 1; n <= 2; n++ {
		probes := observe(t, gain, ids[:n], 10, 6, model, rng)
		_, hErr := hier.estimate(context.Background(), probes)
		_, xErr := exact.estimate(context.Background(), probes)
		want := ErrTooFewProbes
		if n == 2 {
			want = ErrDegenerateSurface
		}
		if !errors.Is(hErr, want) {
			t.Fatalf("n=%d hier: want %v, got %v", n, want, hErr)
		}
		if !errors.Is(xErr, want) {
			t.Fatalf("n=%d exact: want %v, got %v", n, want, xErr)
		}
	}

	c := equivCounter{name: "hier-vs-exact"}
	for trial := 0; trial < 20; trial++ {
		ps, err := RandomProbes(rng, ids, 3)
		if err != nil {
			t.Fatal(err)
		}
		az := -70 + 140*rng.Float64()
		probes := observe(t, gain, ps.IDs(), az, 8, model, rng)
		c.compare(t, fmt.Sprintf("min-probes trial=%d", trial), production(hier), production(exact), probes, diag)
	}
	if c.trials == 0 {
		t.Fatal("no three-probe trial produced an estimate on either path")
	}
	if c.mismatches > 0 {
		t.Fatalf("three-probe selections diverged on %d of %d trials", c.mismatches, c.trials)
	}
}

// TestCoarseDecimOptions pins the structure of the default coarse grid:
// each axis samples every coarseDecim-th dense index and always includes
// the last one, so the refinement windows (radius refineRadius) around
// the coarse samples tile the whole dense grid and every dense point
// stays reachable by the top-K refinement. ExactSearch builds no coarse
// grid at all.
func TestCoarseDecimOptions(t *testing.T) {
	set, _ := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	en := est.en
	if !en.hier() {
		t.Fatal("default options did not build the hierarchy")
	}
	for _, axis := range []struct {
		name string
		idx  []int32
		n    int
	}{
		{"az", en.cAzIdx, len(en.az)},
		{"el", en.cElIdx, len(en.el)},
	} {
		if want := (axis.n-1)/coarseDecim + 1; len(axis.idx) < want {
			t.Fatalf("%s: %d coarse samples, want >= %d", axis.name, len(axis.idx), want)
		}
		if axis.idx[0] != 0 {
			t.Fatalf("%s: coarse grid starts at dense index %d, want 0", axis.name, axis.idx[0])
		}
		if last := axis.idx[len(axis.idx)-1]; int(last) != axis.n-1 {
			t.Fatalf("%s: coarse grid does not include the last dense index: %d != %d", axis.name, last, axis.n-1)
		}
		covered := make([]bool, axis.n)
		for i, c := range axis.idx {
			if i > 0 && c-axis.idx[i-1] > coarseDecim {
				t.Fatalf("%s: coarse samples %d and %d are more than %d apart", axis.name, axis.idx[i-1], c, coarseDecim)
			}
			for d := int(clampIdx(int(c)-refineRadius, axis.n)); d <= int(clampIdx(int(c)+refineRadius, axis.n)); d++ {
				covered[d] = true
			}
		}
		for d, ok := range covered {
			if !ok {
				t.Fatalf("%s: dense index %d lies in no refinement window", axis.name, d)
			}
		}
	}
	// Sector-major: one row per column, each the coarse point count
	// plus the block padding.
	if want := len(en.cAzIdx)*len(en.cElIdx) + blockLanes; en.rowC != want {
		t.Fatalf("coarse dictionary rows hold %d codes, want %d", en.rowC, want)
	}
	if wantQ := en.rowC * en.stride; len(en.coarseQ) != wantQ {
		t.Fatalf("coarse dictionary holds %d codes, want %d", len(en.coarseQ), wantQ)
	}

	exact, err := NewEstimator(set, Options{ExactSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if exact.en.hier() || len(exact.en.coarseQ) != 0 {
		t.Fatal("ExactSearch still built the hierarchy")
	}
}
