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

// Equivalence gate of the production path — the quantized int16 kernel
// (quant.go) behind the default hierarchical search — against the
// float64 serial oracle (SelectSectorSerial / EstimateAoASerial). Any
// divergence is quantization noise or top-K pruning. The gate is ≤1%
// sector divergence (equivCounter.assertRate), AoA within one
// coarse-cell diagonal, over seeded clean and Standard60GHz faulty
// trials, plus exact error parity on degenerate and minimum-probe
// vectors.

// TestQuantMatchesFloatClean runs the seeded clean-channel equivalence
// suite across probe budgets: the production kernel must select the
// float64 oracle's sector on ≥99% of trials and land within one
// coarse-cell diagonal of its angle estimate.
func TestQuantMatchesFloatClean(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diag := coarseDiag(t, est)

	quantBefore := metQuantEstimates.Value()
	c := equivCounter{name: "quant-vs-oracle"}
	for _, tr := range cleanTrials(t, gain) {
		c.compare(t, tr.label, production(est), oracle(est), tr.probes, diag)
	}
	c.assertRate(t, 120)
	if metQuantEstimates.Value() == quantBefore {
		t.Fatal("no estimate was served by the quantized kernel")
	}
}

// TestQuantMatchesFloatFaultyChannel repeats the equivalence suite on
// probe vectors produced by a real simulated link — patterns measured by
// the chamber campaign, probing sweeps run over a lab channel with the
// fault.Standard60GHz impairment chain injected — so the gate covers
// burst loss, RSSI drift, stale feedback and imputed-missing vectors.
func TestQuantMatchesFloatFaultyChannel(t *testing.T) {
	est, trials := faultyTrials(t)
	diag := coarseDiag(t, est)
	c := equivCounter{name: "quant-vs-oracle"}
	for _, tr := range trials {
		c.compare(t, tr.label, production(est), oracle(est), tr.probes, diag)
	}
	c.assertRate(t, 139)
}

// probeTrial is one labelled probe vector of an equivalence generator.
type probeTrial struct {
	label  string
	probes []Probe
}

// cleanTrials is the seeded clean-channel generator over synthSetup's
// gains: 40 trials at each of M = 8, 14, 24 and 32 probes, default
// measurement model.
func cleanTrials(t *testing.T, gain func(sector.ID, float64, float64) float64) []probeTrial {
	t.Helper()
	model := radio.DefaultMeasurementModel()
	rng := stats.NewRNG(37)
	available := sector.TalonTX()
	var out []probeTrial
	for _, m := range []int{8, 14, 24, 32} {
		for trial := 0; trial < 40; trial++ {
			ps, err := RandomProbes(rng, available, m)
			if err != nil {
				t.Fatal(err)
			}
			az := -78 + 156*rng.Float64()
			el := 28 * rng.Float64()
			probes := observe(t, gain, ps.IDs(), az, el, model, rng)
			out = append(out, probeTrial{fmt.Sprintf("m=%d trial=%d", m, trial), probes})
		}
	}
	return out
}

// faultyTrials is the seeded faulty-channel generator: an estimator over
// chamber-measured patterns and the probe vectors of 170 sweeps over a
// lab channel with the fault.Standard60GHz chain injected (sweeps an
// injected fault killed outright are left out).
func faultyTrials(t *testing.T) (*Estimator, []probeTrial) {
	t.Helper()
	dut, err := wil.NewDevice(wil.Config{
		Name: "quant-dut",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x31},
		Seed: 502,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := wil.NewDevice(wil.Config{
		Name: "quant-probe",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x32},
		Seed: 503,
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
	campaign := testbed.NewChamberCampaign(chamber, dut, probe, 504)
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
	link.SetInjector(fault.Standard60GHz(0.15, 4, 505))

	rng := stats.NewRNG(41)
	available := sector.TalonTX()
	var out []probeTrial
	for trial := 0; trial < 170; trial++ {
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
		out = append(out, probeTrial{fmt.Sprintf("trial=%d", trial), ProbesFromMeasurements(ps.IDs(), meas)})
	}
	return est, out
}

// TestQuantDegenerateSurface pins the degenerate-surface parity: with
// only two reported probes the correlation is zero at every grid point
// on both paths, the quantized coarse pass keeps no candidate, and the
// quantized path must route through its exhaustive fallback and fail
// with the same ErrDegenerateSurface sentinel as the serial oracle.
func TestQuantDegenerateSurface(t *testing.T) {
	set, _ := synthSetup(t)
	quant, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := sector.TalonTX()
	probes := []Probe{
		{Sector: ids[0], Meas: radio.Measurement{SNR: 7, RSSI: -55}, OK: true},
		{Sector: ids[5], Meas: radio.Measurement{SNR: 9, RSSI: -52}, OK: true},
	}
	fallbacksBefore := metQuantFallbacks.Value()
	degenerateBefore := metDegenerate.Value()
	_, qErr := quant.estimate(context.Background(), probes)
	_, sErr := quant.EstimateAoASerial(probes)
	if !errors.Is(qErr, ErrDegenerateSurface) {
		t.Fatalf("quant: want ErrDegenerateSurface, got %v", qErr)
	}
	if !errors.Is(sErr, ErrDegenerateSurface) {
		t.Fatalf("serial: want ErrDegenerateSurface, got %v", sErr)
	}
	if metQuantFallbacks.Value() == fallbacksBefore {
		t.Fatal("degenerate surface did not route through the quantized exhaustive fallback")
	}
	if metDegenerate.Value() == degenerateBefore {
		t.Fatal("degenerate quantized estimate was not counted")
	}
}

// TestQuantMinimumProbes pins the minimum-probe parity: one reported
// probe fails with ErrTooFewProbes on both paths, two reported probes
// pass the gate but degenerate on both (Pearson needs three components),
// and three-probe vectors — the smallest estimable ones — must agree on
// the error class and on the fallback decision's outcome. Sector-level
// agreement is deliberately NOT asserted at M = 3: with three components
// the Pearson surface is a near-flat ridge of correlations ≈ 1 (three
// points almost always fit some line), so the argmax cell is decided by
// sub-ULP score differences and even the float64 oracle lands tens of
// degrees from the truth. The selection-equivalence gate lives at the
// paper's operating probe counts in TestQuantMatchesFloatClean and
// TestQuantMatchesFloatFaultyChannel.
func TestQuantMinimumProbes(t *testing.T) {
	set, gain := synthSetup(t)
	quant, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(43)
	model := quietModel()
	ids := sector.TalonTX()

	for n := 1; n <= 2; n++ {
		probes := observe(t, gain, ids[:n], 10, 6, model, rng)
		_, qErr := quant.estimate(context.Background(), probes)
		_, fErr := quant.EstimateAoASerial(probes)
		want := ErrTooFewProbes
		if n == 2 {
			want = ErrDegenerateSurface
		}
		if !errors.Is(qErr, want) {
			t.Fatalf("n=%d quant: want %v, got %v", n, want, qErr)
		}
		if !errors.Is(fErr, want) {
			t.Fatalf("n=%d serial: want %v, got %v", n, want, fErr)
		}
	}

	trials := 0
	for trial := 0; trial < 20; trial++ {
		ps, err := RandomProbes(rng, ids, 3)
		if err != nil {
			t.Fatal(err)
		}
		az := -70 + 140*rng.Float64()
		probes := observe(t, gain, ps.IDs(), az, 8, model, rng)
		qSel, qErr := quant.SelectSector(context.Background(), probes)
		fSel, fErr := quant.SelectSectorSerial(probes)
		if !sameErrClass(qErr, fErr) {
			t.Fatalf("trial=%d: error parity broken: quant %v, serial %v", trial, qErr, fErr)
		}
		if qErr != nil {
			continue
		}
		trials++
		// When both paths reject their ridge and fall back, the sweep
		// fallback depends only on the probes, never the kernel.
		if qSel.Fallback && fSel.Fallback && qSel.Sector != fSel.Sector {
			t.Fatalf("trial=%d: fallback selections diverged: quant %d, serial %d", trial, qSel.Sector, fSel.Sector)
		}
	}
	if trials == 0 {
		t.Fatal("no three-probe trial produced an estimate on either path")
	}
}

// TestQuantBatchMatchesSelectSector proves the batch-major tile pass
// (tile.go) is invisible at the result level: every item of a quantized
// SelectSectorBatch — including error items — must match a standalone
// SelectSector call bit for bit, at every worker count. The chunked
// dictionary sweep only changes which items share a tile, never any
// item's result.
func TestQuantBatchMatchesSelectSector(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	model := radio.DefaultMeasurementModel()
	rng := stats.NewRNG(47)
	available := sector.TalonTX()
	batch := make([][]Probe, 97)
	for i := range batch {
		ps, err := RandomProbes(rng, available, 12)
		if err != nil {
			t.Fatal(err)
		}
		az := -75 + 150*rng.Float64()
		batch[i] = observe(t, gain, ps.IDs(), az, 10, model, rng)
	}
	// Error items: all probes missing (too few reported), and a
	// two-probe vector (degenerate surface, fallback selection).
	for j := range batch[20] {
		batch[20][j].OK = false
	}
	batch[21] = batch[21][:2]

	ctx := context.Background()
	want := make([]BatchResult, len(batch))
	for i := range batch {
		sel, err := est.SelectSector(ctx, batch[i])
		want[i] = BatchResult{Selection: sel, Err: err}
	}
	for _, workers := range []int{0, 1, 3, 5, 64} {
		got, err := est.SelectSectorBatch(ctx, BatchOf(batch), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d item=%d: err %v vs %v", workers, i, got[i].Err, want[i].Err)
			}
			if got[i].Err != nil {
				for _, sentinel := range []error{ErrTooFewProbes, ErrDegenerateSurface} {
					if errors.Is(got[i].Err, sentinel) != errors.Is(want[i].Err, sentinel) {
						t.Fatalf("workers=%d item=%d: sentinel parity broken: %v vs %v", workers, i, got[i].Err, want[i].Err)
					}
				}
				continue
			}
			if !sameSelection(got[i].Selection, want[i].Selection) {
				t.Fatalf("workers=%d item=%d: %+v != %+v", workers, i, got[i].Selection, want[i].Selection)
			}
		}
	}
}

// TestQuantConcurrentUse runs many concurrent quantized estimates
// through one estimator, checking the pooled gather scratch under the
// race detector and that concurrent estimates equal
// sequential ones bit for bit.
func TestQuantConcurrentUse(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(53)
	probeSets := make([][]Probe, 16)
	want := make([]AoAEstimate, len(probeSets))
	for i := range probeSets {
		az := -70 + 140*rng.Float64()
		probeSets[i] = observe(t, gain, sector.TalonTX(), az, 5, quietModel(), rng)
		aoa, err := est.estimate(context.Background(), probeSets[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = aoa
	}
	done := make(chan error, len(probeSets))
	for i := range probeSets {
		go func(i int) {
			aoa, err := est.estimate(context.Background(), probeSets[i])
			if err == nil && !sameAoA(aoa, want[i]) {
				err = fmt.Errorf("probe set %d: %+v != %+v", i, aoa, want[i])
			}
			done <- err
		}(i)
	}
	for range probeSets {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
