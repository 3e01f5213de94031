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
	"talon/internal/pattern"
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
	model := radio.DefaultMeasurementModel()
	rng := stats.NewRNG(37)
	available := sector.TalonTX()
	c := equivCounter{name: "quant-vs-oracle"}
	for _, m := range []int{8, 14, 24, 32} {
		for trial := 0; trial < 40; trial++ {
			ps, err := RandomProbes(rng, available, m)
			if err != nil {
				t.Fatal(err)
			}
			az := -78 + 156*rng.Float64()
			el := 28 * rng.Float64()
			probes := observe(t, gain, ps.IDs(), az, el, model, rng)
			c.compare(t, fmt.Sprintf("m=%d trial=%d", m, trial), production(est), oracle(est), probes, diag)
		}
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
	diag := coarseDiag(t, est)

	dutPose, probePose := testbed.FacingPoses(3, 1.2)
	dut.SetPose(dutPose)
	probe.SetPose(probePose)
	link := wil.NewLink(channel.Lab(), dut, probe)
	link.SetInjector(fault.Standard60GHz(0.15, 4, 505))

	rng := stats.NewRNG(41)
	available := sector.TalonTX()
	c := equivCounter{name: "quant-vs-oracle"}
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
		probes := ProbesFromMeasurements(ps.IDs(), meas)
		c.compare(t, fmt.Sprintf("trial=%d", trial), production(est), oracle(est), probes, diag)
	}
	c.assertRate(t, 139)
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
	_, qErr := quant.EstimateAoA(context.Background(), probes)
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
		_, qErr := quant.EstimateAoA(context.Background(), probes)
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
// race detector and that concurrent EstimateAoA results equal
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
		aoa, err := est.EstimateAoA(context.Background(), probeSets[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = aoa
	}
	done := make(chan error, len(probeSets))
	for i := range probeSets {
		go func(i int) {
			aoa, err := est.EstimateAoA(context.Background(), probeSets[i])
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

// TestQuantHoleyDictionary routes a dictionary with NaN holes through
// the production kernel and gates it against the serial oracle. Single
// holes exercise the nearest-valid corner substitution baked into the
// dictionary at build time; two adjacent missing elevation rows leave
// real dictionary NaNs, which disable the fused fast path (the missing
// sentinel must be re-checked at every grid point). Structured
// observations must track the oracle's sector within a 5% budget;
// random garbage readings with missed reports must match its error
// class on every trial, and bit for bit whenever both pick the same
// cell.
func TestQuantHoleyDictionary(t *testing.T) {
	grid, err := geom.UniformGrid(-60, 60, 4, 0, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	set := pattern.NewSet()
	gains := make(map[sector.ID]func(az, el float64) float64)
	for i := 1; i <= 10; i++ {
		id := sector.ID(i)
		center := -55 + float64(i)*11
		gain := func(az, el float64) float64 {
			return 11 - (az-center)*(az-center)/60 - el/4
		}
		gains[id] = gain
		p := pattern.FromFunc(grid, gain)
		p.Set(i, 0, math.NaN())
		p.Set(i+5, 1, math.NaN())
		if i == 4 {
			// Two adjacent full missing elevation rows defeat the engine's
			// nearest-corner substitution (Pattern.At only returns NaN when
			// all four bracket corners are missing) and leave real
			// dictionary NaNs.
			for a := 0; a < grid.NumAz(); a++ {
				p.Set(a, 2, math.NaN())
				p.Set(a, 3, math.NaN())
			}
		}
		if err := set.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.en.fullQ {
		t.Fatal("holey dictionary built a full (hole-free) quantized kernel")
	}
	ctx := context.Background()
	rng := stats.NewRNG(59)
	mismatches, trials := 0, 0
	for trial := 0; trial < 60; trial++ {
		az := -50 + 100*rng.Float64()
		probes := make([]Probe, 0, 10)
		for i := 1; i <= 10; i++ {
			id := sector.ID(i)
			g := gains[id](az, 4)
			probes = append(probes, Probe{
				Sector: id,
				Meas:   radio.Measurement{SNR: g - 4 + rng.Norm(0, 0.5), RSSI: g - 74 + rng.Norm(0, 0.5)},
				OK:     true,
			})
		}
		qSel, qErr := est.SelectSector(ctx, probes)
		sSel, sErr := est.SelectSectorSerial(probes)
		if !sameErrClass(qErr, sErr) {
			t.Fatalf("trial %d: error parity broken: quant %v, serial %v", trial, qErr, sErr)
		}
		if qErr != nil {
			continue
		}
		trials++
		if qSel.Sector != sSel.Sector {
			mismatches++
		}
	}
	if trials < 50 {
		t.Fatalf("only %d successful holey trials", trials)
	}
	if budget := trials / 20; mismatches > budget {
		t.Fatalf("holey-dictionary selections diverged on %d of %d trials (budget %d)", mismatches, trials, budget)
	}

	rng = stats.NewRNG(3)
	cellDiv := 0
	for trial := 0; trial < 50; trial++ {
		probes := make([]Probe, 0, 10)
		for i := 1; i <= 10; i++ {
			probes = append(probes, Probe{
				Sector: sector.ID(i),
				Meas:   radio.Measurement{SNR: -5 + 20*rng.Float64(), RSSI: -75 + 20*rng.Float64()},
				OK:     rng.Float64() > 0.3,
			})
		}
		label := fmt.Sprintf("garbage trial=%d", trial)
		gotAoA, gotErr := est.EstimateAoA(ctx, probes)
		refAoA, refErr := est.EstimateAoASerial(probes)
		if !sameErrClass(gotErr, refErr) {
			t.Fatalf("%s: engine err %v, serial err %v", label, gotErr, refErr)
		}
		if gotErr == nil && !checkEpilogue(t, label, gotAoA, refAoA) {
			cellDiv++
		}
	}
	t.Logf("holey dictionary: %d/%d structured sector divergences, %d/50 garbage-reading cell divergences",
		mismatches, trials, cellDiv)
}

// TestQuantNonFiniteDictionary feeds the production kernel dictionaries
// with no usable amplitude at all (every sample NaN: patterns created
// with pattern.New and never filled) and with a single +Inf sample. Both
// must stay on the quantized kernel — non-finite samples quantize as
// holes — match the serial oracle's error class on every call, and
// never panic.
func TestQuantNonFiniteDictionary(t *testing.T) {
	ctx := context.Background()
	ids := sector.TalonTX()

	t.Run("all-nan", func(t *testing.T) {
		grid, err := geom.UniformGrid(-60, 60, 4, 0, 12, 4)
		if err != nil {
			t.Fatal(err)
		}
		set := pattern.NewSet()
		for _, id := range ids[:8] {
			if err := set.Put(id, pattern.New(grid)); err != nil {
				t.Fatal(err)
			}
		}
		est, err := NewEstimator(set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range est.en.dictQ {
			if c != quantMissing {
				t.Fatalf("dictQ[%d] = %d, want quantMissing", i, c)
			}
		}
		probes := make([]Probe, 0, 8)
		for i, id := range ids[:8] {
			probes = append(probes, Probe{Sector: id, Meas: radio.Measurement{SNR: float64(i), RSSI: -70 + float64(i)}, OK: true})
		}
		_, qErr := est.EstimateAoA(ctx, probes)
		_, sErr := est.EstimateAoASerial(probes)
		if !errors.Is(qErr, ErrDegenerateSurface) || !sameErrClass(qErr, sErr) {
			t.Fatalf("want ErrDegenerateSurface on both paths, got quant %v, serial %v", qErr, sErr)
		}
		qSel, qErr := est.SelectSector(ctx, probes)
		sSel, sErr := est.SelectSectorSerial(probes)
		if !sameErrClass(qErr, sErr) || !sameSelection(qSel, sSel) {
			t.Fatalf("selection parity broken: quant %+v %v, serial %+v %v", qSel, qErr, sSel, sErr)
		}
	})

	t.Run("one-inf", func(t *testing.T) {
		set, gain := synthSetup(t)
		inf := set.Get(ids[5]).Clone()
		inf.Set(40, 3, math.Inf(1))
		if err := set.Put(ids[5], inf); err != nil {
			t.Fatal(err)
		}
		est, err := NewEstimator(set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(est.en.dictQ) == 0 || est.en.fullQ {
			t.Fatal("+Inf sample did not quantize as a dictionary hole")
		}
		rng := stats.NewRNG(67)
		model := radio.DefaultMeasurementModel()
		for trial := 0; trial < 40; trial++ {
			ps, err := RandomProbes(rng, ids, 14)
			if err != nil {
				t.Fatal(err)
			}
			probes := observe(t, gain, ps.IDs(), -78+156*rng.Float64(), 28*rng.Float64(), model, rng)
			_, qErr := est.EstimateAoA(ctx, probes)
			_, sErr := est.EstimateAoASerial(probes)
			if !sameErrClass(qErr, sErr) {
				t.Fatalf("trial %d: estimate error parity broken: quant %v, serial %v", trial, qErr, sErr)
			}
			_, qErr = est.SelectSector(ctx, probes)
			_, sErr = est.SelectSectorSerial(probes)
			if !sameErrClass(qErr, sErr) {
				t.Fatalf("trial %d: select error parity broken: quant %v, serial %v", trial, qErr, sErr)
			}
		}
	})
}
