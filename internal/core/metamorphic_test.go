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
// invariant; windowOffset moves each vector's maximum to the top of the
// quantization window, so the shifted vector encodes to the same int16
// codes and the fallback sweep's argmax over reported SNR is
// shift-invariant too. The same holds on every production path:
// SelectSector, SelectSectorBatch over cold items and over items hinted
// with the unshifted cell, and SelectWithBackup (primary, HasBackup and
// backup sector; the path cancellation is a power-domain fit, so a
// common scale cancels out of it). It runs over the clean and
// Standard60GHz generators of the equivalence suites.
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
	const minSepDeg = 18
	ctx := context.Background()
	for _, s := range suites {
		t.Run(s.name, func(t *testing.T) {
			n := len(s.trials)
			base := make([]Selection, n)
			baseErr := make([]error, n)
			baseBackup := make([]BackupSelection, n)
			baseBackupErr := make([]error, n)
			fallbacks, backups := 0, 0
			for i, tr := range s.trials {
				base[i], baseErr[i] = s.est.SelectSector(ctx, tr.probes)
				if base[i].Fallback {
					fallbacks++
				}
				baseBackup[i], baseBackupErr[i] = s.est.SelectWithBackup(ctx, tr.probes, minSepDeg)
				if baseBackup[i].HasBackup {
					backups++
				}
			}
			// batch holds every trial twice: cold at i, and hinted with
			// its unshifted cell at n+i.
			batch := func(k int) []BatchResult {
				t.Helper()
				items := make([]BatchItem, 2*n)
				for i, tr := range s.trials {
					probes := shiftProbes(tr.probes, k)
					hint := NoCell
					if baseErr[i] == nil {
						hint = base[i].AoA.Cell
					}
					items[i] = BatchItem{Probes: probes, Hint: NoCell}
					items[n+i] = BatchItem{Probes: probes, Hint: hint}
				}
				res, err := s.est.SelectSectorBatch(ctx, items, 0)
				if err != nil {
					t.Fatalf("shift %+d quanta: batch: %v", k, err)
				}
				return res
			}
			baseBatch := batch(0)
			same := func(a, b Selection) bool {
				return a.Sector == b.Sector && a.Fallback == b.Fallback && a.AoA.Cell == b.AoA.Cell
			}
			checked := 0
			for _, k := range []int{-40, -9, -1, 1, 6, 24} {
				shifted := batch(k)
				for i, tr := range s.trials {
					probes := shiftProbes(tr.probes, k)
					got, err := s.est.SelectSector(ctx, probes)
					if !sameErrClass(err, baseErr[i]) {
						t.Fatalf("%s shift %+d quanta: error %v, unshifted %v", tr.label, k, err, baseErr[i])
					}
					if !same(got, base[i]) {
						t.Fatalf("%s shift %+d quanta: sector %v fallback %v cell %v, unshifted %v %v %v",
							tr.label, k, got.Sector, got.Fallback, got.AoA.Cell, base[i].Sector, base[i].Fallback, base[i].AoA.Cell)
					}
					for _, j := range []int{i, n + i} {
						path := "cold batch"
						if j >= n {
							path = "hinted batch"
						}
						g, b := shifted[j], baseBatch[j]
						if !sameErrClass(g.Err, b.Err) || !same(g.Selection, b.Selection) {
							t.Fatalf("%s shift %+d quanta: %s sector %v fallback %v cell %v err %v, unshifted %v %v %v err %v",
								tr.label, k, path, g.Selection.Sector, g.Selection.Fallback, g.Selection.AoA.Cell, g.Err,
								b.Selection.Sector, b.Selection.Fallback, b.Selection.AoA.Cell, b.Err)
						}
					}
					bk, err := s.est.SelectWithBackup(ctx, probes, minSepDeg)
					bb := baseBackup[i]
					if !sameErrClass(err, baseBackupErr[i]) || !same(bk.Primary, bb.Primary) || bk.HasBackup != bb.HasBackup ||
						(bk.HasBackup && bk.Backup.Sector != bb.Backup.Sector) {
						t.Fatalf("%s shift %+d quanta: backup primary %v has %v backup %v err %v, unshifted %v %v %v err %v",
							tr.label, k, bk.Primary.Sector, bk.HasBackup, bk.Backup.Sector, err,
							bb.Primary.Sector, bb.HasBackup, bb.Backup.Sector, baseBackupErr[i])
					}
					checked++
				}
			}
			t.Logf("%d shifted trials over %d trials (%d unshifted fallbacks, %d backups) unchanged on SelectSector, cold and hinted batch, and SelectWithBackup",
				checked, n, fallbacks, backups)
		})
	}
}
