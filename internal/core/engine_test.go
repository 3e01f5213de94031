package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"talon/internal/geom"
	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// sameAoA reports whether two estimates agree to within 1e-12. Paths
// that score the same cell perform the identical floating-point
// operations in the identical order, so they should in fact be bitwise
// equal; the slack only guards the comparison itself.
func sameAoA(a, b AoAEstimate) bool {
	const tol = 1e-12
	return math.Abs(a.Az-b.Az) <= tol &&
		math.Abs(a.El-b.El) <= tol &&
		math.Abs(a.Corr-b.Corr) <= tol &&
		a.Used == b.Used
}

func sameSelection(a, b Selection) bool {
	if a.Sector != b.Sector || a.Fallback != b.Fallback || !sameAoA(a.AoA, b.AoA) {
		return false
	}
	if math.IsNaN(a.Gain) || math.IsNaN(b.Gain) {
		return math.IsNaN(a.Gain) && math.IsNaN(b.Gain)
	}
	return math.Abs(a.Gain-b.Gain) <= 1e-12
}

// sameErrClass reports whether two estimate errors fall in the same
// class: both nil, or both carrying the same typed sentinel.
func sameErrClass(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for _, sentinel := range []error{ErrTooFewProbes, ErrDegenerateSurface} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			return false
		}
	}
	return true
}

// checkEpilogue enforces the float-epilogue contract (DESIGN.md §15)
// against the serial oracle: whenever the production search picks the
// oracle's grid cell, Az, El and Corr must be bit-identical. It reports
// whether the two estimates picked the same cell.
func checkEpilogue(t *testing.T, label string, got, ref AoAEstimate) bool {
	t.Helper()
	if got.Cell != ref.Cell {
		return false
	}
	if math.Float64bits(got.Az) != math.Float64bits(ref.Az) ||
		math.Float64bits(got.El) != math.Float64bits(ref.El) ||
		math.Float64bits(got.Corr) != math.Float64bits(ref.Corr) ||
		got.Used != ref.Used {
		t.Fatalf("%s: same cell %d but estimate %+v != oracle %+v", label, got.Cell, got, ref)
	}
	return true
}

// TestEngineMatchesSerial gates both correlation variants (joint Eq. 5
// and SNR-only) of the production kernel against the serial oracle, across probe counts and
// noisy observations (including missed probes from the defect model).
// On every trial the error classes must match, and whenever both paths
// pick the same grid cell the estimate must be bit-identical (the
// epilogue contract). Cell and sector divergences are properties of the
// int16 kernel, not regressions: they are logged per variant and
// recorded in EXPERIMENTS.md, and gated by budget only in the
// default-options suites (quant_equiv_test.go). The m = 4 vectors sit
// near the ridge regime of TestQuantMinimumProbes and carry most of the
// divergence.
func TestEngineMatchesSerial(t *testing.T) {
	set, gain := synthSetup(t)
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"snr-only", Options{SNROnly: true}},
	}
	model := radio.DefaultMeasurementModel()
	ctx := context.Background()
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			est, err := NewEstimator(set, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(17)
			available := sector.TalonTX()
			for _, m := range []int{4, 8, 14, 34} {
				cellDiv, sectorDiv := 0, 0
				for trial := 0; trial < 25; trial++ {
					ps, err := RandomProbes(rng, available, m)
					if err != nil {
						t.Fatal(err)
					}
					az := -78 + 156*rng.Float64()
					el := 28 * rng.Float64()
					probes := observe(t, gain, ps.IDs(), az, el, model, rng)
					label := fmt.Sprintf("m=%d trial=%d", m, trial)

					gotAoA, gotErr := est.estimate(ctx, probes)
					refAoA, refErr := est.estimateAoASerial(probes)
					if !sameErrClass(gotErr, refErr) {
						t.Fatalf("%s: engine err %v, serial err %v", label, gotErr, refErr)
					}
					if gotErr == nil && !checkEpilogue(t, label, gotAoA, refAoA) {
						cellDiv++
					}

					gotSel, gotErr := est.SelectSector(ctx, probes)
					refSel, refErr := est.selectSectorSerial(probes)
					if !sameErrClass(gotErr, refErr) {
						t.Fatalf("%s: select engine err %v, serial err %v", label, gotErr, refErr)
					}
					if gotErr != nil {
						continue
					}
					if gotSel.AoA.Cell == refSel.AoA.Cell && !sameSelection(gotSel, refSel) {
						t.Fatalf("%s: same cell but select engine %+v != serial %+v", label, gotSel, refSel)
					}
					if gotSel.Sector != refSel.Sector {
						sectorDiv++
					}
				}
				t.Logf("m=%d: %d/25 cell divergences, %d/25 sector divergences vs the serial oracle", m, cellDiv, sectorDiv)
			}
		})
	}
}

// TestEngineMatchesSerialWithHoles checks the equivalence on patterns with
// single NaN holes (and one sector with a full missing elevation row),
// all of which the nearest-valid corner substitution baked into the
// dictionary at build time fills. Random readings with occasional
// missing reports must match the serial oracle's error class on every
// trial and, whenever both paths pick the same grid cell, its estimate
// bit for bit (the epilogue contract). These readings give near-flat
// correlation surfaces, so the int16 kernel may settle on a different
// cell; such divergences are logged, as in TestEngineMatchesSerial.
func TestEngineMatchesSerialWithHoles(t *testing.T) {
	grid, err := geom.UniformGrid(-60, 60, 4, 0, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	set := pattern.NewSet()
	for i := 1; i <= 10; i++ {
		id := sector.ID(i)
		center := -55 + float64(i)*11
		p := pattern.FromFunc(grid, func(az, el float64) float64 {
			return 11 - (az-center)*(az-center)/60 - el/4
		})
		p.Set(i, 0, math.NaN())
		p.Set(i+5, 1, math.NaN())
		p.Set(2*i, 2, math.NaN())
		if i == 4 {
			for a := 0; a < grid.NumAz(); a++ {
				p.Set(a, 3, math.NaN())
			}
		}
		if err := set.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	// Pin ExactSearch: the random readings below produce surfaces the
	// hierarchical search is allowed to resolve differently.
	est, err := NewEstimator(set, Options{ExactSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := stats.NewRNG(3)
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
		label := fmt.Sprintf("trial=%d", trial)
		gotAoA, gotErr := est.estimate(ctx, probes)
		refAoA, refErr := est.estimateAoASerial(probes)
		if !sameErrClass(gotErr, refErr) {
			t.Fatalf("%s: engine err %v, serial err %v", label, gotErr, refErr)
		}
		if gotErr == nil && !checkEpilogue(t, label, gotAoA, refAoA) {
			cellDiv++
		}
	}
	t.Logf("%d/50 cell divergences vs the serial oracle", cellDiv)
}

// TestEngineErrorParity checks that engine and serial paths fail with the
// same typed sentinels.
func TestEngineErrorParity(t *testing.T) {
	set, _ := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tooFew := []Probe{{Sector: 1, Meas: radio.Measurement{SNR: 5, RSSI: -60}, OK: true}}
	_, engineErr := est.estimate(context.Background(), tooFew)
	_, serialErr := est.estimateAoASerial(tooFew)
	if !errors.Is(engineErr, ErrTooFewProbes) {
		t.Fatalf("engine: want ErrTooFewProbes, got %v", engineErr)
	}
	if !errors.Is(serialErr, ErrTooFewProbes) {
		t.Fatalf("serial: want ErrTooFewProbes, got %v", serialErr)
	}
}

// TestEstimateCancellation checks that a cancelled context aborts the
// grid search with context.Canceled rather than a degraded result or a
// fallback selection.
func TestEstimateCancellation(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	probes := observe(t, gain, sector.TalonTX(), 20, 6, quietModel(), rng)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := est.estimate(ctx, probes); !errors.Is(err, context.Canceled) {
		t.Fatalf("estimate: want context.Canceled, got %v", err)
	}
	if _, err := est.SelectSector(ctx, probes); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectSector: want context.Canceled, got %v", err)
	}
	if _, err := est.SelectWithBackup(ctx, probes, 15); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectWithBackup: want context.Canceled, got %v", err)
	}

	// A live context must not be affected.
	if _, err := est.estimate(context.Background(), probes); err != nil {
		t.Fatalf("live context: %v", err)
	}
}

// TestEngineConcurrentUse runs many concurrent selections — hintless
// and hinted one-item batches — through one estimator to exercise the scratch pools
// under the race detector: every concurrent result must equal the
// sequential result of the same call bit for bit.
func TestEngineConcurrentUse(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		sel Selection
		err error
	}
	ctx := context.Background()
	rng := stats.NewRNG(11)
	probeSets := make([][]Probe, 16)
	hints := make([]Cell, len(probeSets))
	selectOne := func(i int) result {
		res, err := est.SelectSectorBatch(ctx, []BatchItem{{Probes: probeSets[i], Hint: hints[i]}}, 1)
		if err != nil {
			return result{err: err}
		}
		return result{res[0].Selection, res[0].Err}
	}
	want := make([]result, len(probeSets))
	for i := range probeSets {
		az := -70 + 140*rng.Float64()
		probeSets[i] = observe(t, gain, sector.TalonTX(), az, 5, quietModel(), rng)
		if i%2 == 1 {
			// Odd sets chain the previous set's cell as a hint.
			hints[i] = want[i-1].sel.AoA.Cell
		}
		want[i] = selectOne(i)
	}
	got := make([]result, len(probeSets))
	done := make(chan int, len(probeSets))
	for i := range probeSets {
		go func(i int) {
			got[i] = selectOne(i)
			done <- i
		}(i)
	}
	for range probeSets {
		<-done
	}
	for i := range probeSets {
		if !sameErrClass(got[i].err, want[i].err) {
			t.Fatalf("probe set %d: err %v vs %v", i, got[i].err, want[i].err)
		}
		if got[i].err == nil && !sameSelection(got[i].sel, want[i].sel) {
			t.Fatalf("probe set %d: %+v != %+v", i, got[i].sel, want[i].sel)
		}
	}
}
