package core

import (
	"context"
	"testing"

	"talon/internal/radio"
)

// shiftProbes returns a copy of probes with every reading — SNR and RSSI,
// reported or not — moved by k quarter-dB quanta. The readings are the
// reported ones, already clamped to the firmware window; the shift may
// move them past it.
func shiftProbes(probes []Probe, k int) []Probe {
	d := float64(k) * radio.SNRQuantumDB
	out := append([]Probe(nil), probes...)
	for i := range out {
		out[i].Meas.SNR += d
		out[i].Meas.RSSI += d
	}
	return out
}

// TestSelectSectorShiftInvariant is the metamorphic test of the
// production selection: a uniform dB offset, a multiple of the quarter-dB
// quantum, applied to every reading of a probe vector must leave the
// selected sector, the fallback decision and the argmax cell unchanged.
// A dB offset is a linear scale, under which the Pearson correlation is
// invariant; quantizeVec moves each vector's maximum to the top of the
// quantization window, so the shifted vector encodes to the same int16
// codes and the fallback sweep's argmax over reported SNR is
// shift-invariant too. It runs over the clean and Standard60GHz
// generators of the equivalence suites.
func TestSelectSectorShiftInvariant(t *testing.T) {
	set, gain := synthSetup(t)
	clean, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, faultyTr := faultyTrials(t)
	suites := []struct {
		name   string
		est    *Estimator
		trials []probeTrial
	}{
		{"clean", clean, cleanTrials(t, gain)},
		{"faulty", faulty, faultyTr},
	}
	ctx := context.Background()
	for _, s := range suites {
		t.Run(s.name, func(t *testing.T) {
			checked, fallbacks := 0, 0
			for _, tr := range s.trials {
				base, baseErr := s.est.SelectSector(ctx, tr.probes)
				if base.Fallback {
					fallbacks++
				}
				for _, k := range []int{-40, -9, -1, 1, 6, 24} {
					got, err := s.est.SelectSector(ctx, shiftProbes(tr.probes, k))
					if !sameErrClass(err, baseErr) {
						t.Fatalf("%s shift %+d quanta: error %v, unshifted %v", tr.label, k, err, baseErr)
					}
					if got.Sector != base.Sector || got.Fallback != base.Fallback || got.AoA.Cell != base.AoA.Cell {
						t.Fatalf("%s shift %+d quanta: sector %v fallback %v cell %v, unshifted %v %v %v",
							tr.label, k, got.Sector, got.Fallback, got.AoA.Cell, base.Sector, base.Fallback, base.AoA.Cell)
					}
					checked++
				}
			}
			t.Logf("%d shifted selections over %d trials (%d unshifted fallbacks) unchanged", checked, len(s.trials), fallbacks)
		})
	}
}
