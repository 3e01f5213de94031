package core

// Failure-injection tests for the estimator: degenerate measurements,
// broken pattern sets, hostile readings.

import (
	"context"
	"errors"
	"math"
	"testing"

	"talon/internal/geom"
	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

func TestEstimatorAllProbesMissing(t *testing.T) {
	set, _ := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	probes := make([]Probe, 14)
	for i := range probes {
		probes[i] = Probe{Sector: sector.ID(i + 1)}
	}
	if _, err := est.estimate(context.Background(), probes); err == nil {
		t.Fatal("all-missing probes estimated")
	}
	if _, err := est.SelectSector(context.Background(), probes); err == nil {
		t.Fatal("all-missing probes selected")
	}
}

func TestEstimatorConstantReadings(t *testing.T) {
	// All probes read the exact same value: the centered correlation is
	// degenerate everywhere; selection must fall back, not panic.
	set, _ := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	probes := make([]Probe, 12)
	for i := range probes {
		probes[i] = Probe{
			Sector: sector.ID(i + 1),
			Meas:   radio.Measurement{SNR: 3, RSSI: -65},
			OK:     true,
		}
	}
	sel, err := est.SelectSector(context.Background(), probes)
	if err != nil {
		t.Fatalf("constant readings not handled: %v", err)
	}
	if !sel.Fallback {
		t.Fatal("constant readings did not trigger the fallback")
	}
}

func TestEstimatorHostileOutliers(t *testing.T) {
	// Every reading replaced by an adversarial extreme: selection still
	// returns a valid sector (quality degraded, but never a crash or an
	// invalid ID).
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(1)
	probes := observe(t, gain, sector.TalonTX(), 0, 5, quietModel(), rng)
	for i := range probes {
		if i%2 == 0 {
			probes[i].Meas.SNR = radio.SNRMaxDB
			probes[i].Meas.RSSI = -20
		} else {
			probes[i].Meas.SNR = radio.SNRMinDB
			probes[i].Meas.RSSI = -110
		}
	}
	sel, err := est.SelectSector(context.Background(), probes)
	if err != nil {
		t.Fatalf("hostile readings: %v", err)
	}
	if !sector.IsTalonTX(sel.Sector) {
		t.Fatalf("invalid sector %v", sel.Sector)
	}
}

func TestEstimatorPatternsWithHoles(t *testing.T) {
	// A pattern set with NaN holes (unprocessed campaign data) must not
	// break the correlation.
	grid, err := geom.UniformGrid(-60, 60, 5, 0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	set := pattern.NewSet()
	for i := 1; i <= 8; i++ {
		id := sector.ID(i)
		center := -50 + float64(i)*12
		p := pattern.FromFunc(grid, func(az, el float64) float64 {
			return 10 - (az-center)*(az-center)/50
		})
		// Punch holes.
		p.Set(i, 0, math.NaN())
		p.Set(i+3, 1, math.NaN())
		if err := set.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probes := []Probe{
		{Sector: 2, Meas: radio.Measurement{SNR: 9, RSSI: -62}, OK: true},
		{Sector: 4, Meas: radio.Measurement{SNR: 4, RSSI: -68}, OK: true},
		{Sector: 6, Meas: radio.Measurement{SNR: -2, RSSI: -74}, OK: true},
		{Sector: 8, Meas: radio.Measurement{SNR: -6, RSSI: -78}, OK: true},
	}
	if _, err := est.estimate(context.Background(), probes); err != nil {
		t.Fatalf("holey patterns: %v", err)
	}
}

// TestNewEstimatorRejectsHoles: a pattern set that leaves some grid
// point without a finite amplitude — a gap Pattern.At cannot fill from a
// neighbouring sample, or an infinite sample — is refused with
// ErrPatternHole. Isolated NaN samples that Pattern.At fills build fine
// (TestEstimatorPatternsWithHoles, TestEngineMatchesSerialWithHoles).
func TestNewEstimatorRejectsHoles(t *testing.T) {
	grid, err := geom.UniformGrid(-60, 60, 4, 0, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	ids := sector.TalonTX()
	cases := []struct {
		name string
		set  func(t *testing.T) *pattern.Set
	}{
		{"adjacent-nan-rows", func(t *testing.T) *pattern.Set {
			set := pattern.NewSet()
			for i, id := range ids[:10] {
				center := -55 + float64(i)*11
				p := pattern.FromFunc(grid, func(az, el float64) float64 {
					return 11 - (az-center)*(az-center)/60 - el/4
				})
				if i == 3 {
					// Pattern.At fills one missing row from the next, but
					// not two adjacent ones.
					for a := 0; a < grid.NumAz(); a++ {
						p.Set(a, 2, math.NaN())
						p.Set(a, 3, math.NaN())
					}
				}
				if err := set.Put(id, p); err != nil {
					t.Fatal(err)
				}
			}
			return set
		}},
		{"all-nan", func(t *testing.T) *pattern.Set {
			set := pattern.NewSet()
			for _, id := range ids[:8] {
				if err := set.Put(id, pattern.New(grid)); err != nil {
					t.Fatal(err)
				}
			}
			return set
		}},
		{"one-inf", func(t *testing.T) *pattern.Set {
			set, _ := synthSetup(t)
			inf := set.Get(ids[5]).Clone()
			inf.Set(40, 3, math.Inf(1))
			if err := set.Put(ids[5], inf); err != nil {
				t.Fatal(err)
			}
			return set
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := tc.set(t)
			for _, exact := range []bool{false, true} {
				est, err := NewEstimator(set, Options{ExactSearch: exact})
				if !errors.Is(err, ErrPatternHole) || est != nil {
					t.Fatalf("ExactSearch=%v: got %v, %v; want ErrPatternHole", exact, est, err)
				}
			}
		})
	}
}

func TestEstimatorProbeForUnknownSector(t *testing.T) {
	// Probes referencing sectors missing from the pattern set are
	// skipped, not fatal.
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(2)
	probes := observe(t, gain, sector.TalonTX()[:8], -60, 5, quietModel(), rng)
	probes = append(probes, Probe{Sector: 50, Meas: radio.Measurement{SNR: 11}, OK: true})
	if _, err := est.estimate(context.Background(), probes); err != nil {
		t.Fatalf("unknown-sector probe: %v", err)
	}
}

func TestSweepSelectNaNReadings(t *testing.T) {
	probes := []Probe{
		{Sector: 1, Meas: radio.Measurement{SNR: math.NaN()}, OK: true},
		{Sector: 2, Meas: radio.Measurement{SNR: 4}, OK: true},
	}
	id, ok := SweepSelect(probes)
	if !ok || id != 2 {
		t.Fatalf("NaN reading mishandled: %v %v", id, ok)
	}
}

func TestMultipathDegenerateVector(t *testing.T) {
	set, _ := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	probes := []Probe{
		{Sector: 1, Meas: radio.Measurement{SNR: 0, RSSI: -70}, OK: true},
		{Sector: 2, Meas: radio.Measurement{SNR: 0, RSSI: -70}, OK: true},
		{Sector: 3, Meas: radio.Measurement{SNR: 0, RSSI: -70}, OK: true},
	}
	// SelectWithBackup must degrade gracefully on a flat surface.
	sel, err := est.SelectWithBackup(context.Background(), probes, 15)
	if err != nil {
		t.Fatalf("SelectWithBackup on degenerate vector: %v", err)
	}
	if sel.HasBackup && sel.Backup.Sector == sel.Primary.Sector {
		t.Fatal("backup equals primary")
	}
}

// TestSelectSectorNaNReading feeds one reported probe whose SNR is NaN
// among thirteen good readings. The serial oracle sees a NaN correlation
// everywhere and falls back to the probed-sector argmax; the production
// path must do the same, not pick a sector toward a NaN angle (which
// failed with an untyped "no usable TX sector" error).
func TestSelectSectorNaNReading(t *testing.T) {
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(71)
	ctx := context.Background()
	for trial := 0; trial < 5; trial++ {
		ps, err := RandomProbes(rng, sector.TalonTX(), 14)
		if err != nil {
			t.Fatal(err)
		}
		probes := observe(t, gain, ps.IDs(), -60+120*rng.Float64(), 12, quietModel(), rng)
		probes[trial].Meas.SNR = math.NaN()
		got, gotErr := est.SelectSector(ctx, probes)
		want, wantErr := est.selectSectorSerial(probes)
		if !sameErrClass(gotErr, wantErr) {
			t.Fatalf("trial %d: error class: production %v, oracle %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if got.Sector != want.Sector || got.Fallback != want.Fallback {
			t.Fatalf("trial %d: production %v (fallback %v), oracle %v (fallback %v)",
				trial, got.Sector, got.Fallback, want.Sector, want.Fallback)
		}
	}
}
