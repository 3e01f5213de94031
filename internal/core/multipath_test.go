package core

import (
	"context"
	"math"
	"testing"

	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// twoPathObserve produces probe readings for a channel with two discrete
// paths: per sector the received power is the sum of the two paths'
// pattern gains (secondary attenuated by atten dB).
func twoPathObserve(t testing.TB, gain func(sector.ID, float64, float64) float64,
	probed []sector.ID, az1, el1, az2, el2, attenDB float64,
	model radio.MeasurementModel, rng *stats.RNG) []Probe {
	t.Helper()
	probes := make([]Probe, 0, len(probed))
	for _, id := range probed {
		p1 := math.Pow(10, gain(id, az1, el1)/10)
		p2 := math.Pow(10, (gain(id, az2, el2)-attenDB)/10)
		snr := 10 * math.Log10(p1+p2)
		m, ok := model.Observe(snr, rng)
		probes = append(probes, Probe{Sector: id, Meas: m, OK: ok})
	}
	return probes
}

// searchPeaks runs SelectWithBackup's successive-cancellation search
// over probes and returns its first k peaks, the production estimate
// first.
func searchPeaks(t *testing.T, est *Estimator, probes []Probe, k int, minSepDeg float64) []AoAEstimate {
	t.Helper()
	ctx := context.Background()
	bs := est.en.getBatchScratch()
	defer est.en.putBatchScratch(bs)
	s, err := est.startPeaks(ctx, bs, probes, minSepDeg)
	if err != nil {
		t.Fatal(err)
	}
	peaks := []AoAEstimate{s.last}
	for len(peaks) < k {
		pk, ok, err := s.next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		peaks = append(peaks, pk)
	}
	return peaks
}

func TestEstimateMultipathTwoPaths(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	model := quietModel()
	const az1, el1 = -40.0, 5.0
	const az2, el2 = 35.0, 10.0
	found1, found2 := 0, 0
	const trials = 20
	for i := 0; i < trials; i++ {
		probes := twoPathObserve(t, gain, sector.TalonTX(), az1, el1, az2, el2, 4, model, rng)
		peaks := searchPeaks(t, est, probes, 3, 20)
		// Peaks come in detection order; each must carry a positive
		// correlation. (After interference cancellation a later peak's
		// correlation may legitimately exceed the first one's.)
		for _, pk := range peaks {
			if pk.Corr <= 0 {
				t.Fatal("non-positive peak correlation")
			}
		}
		for _, pk := range peaks {
			if math.Abs(pk.Az-az1) < 10 {
				found1++
			}
			if math.Abs(pk.Az-az2) < 10 {
				found2++
			}
		}
	}
	if found1 < trials*3/4 {
		t.Errorf("primary path found in %d/%d trials", found1, trials)
	}
	if found2 < trials/2 {
		t.Errorf("secondary path found in %d/%d trials", found2, trials)
	}
}

func TestEstimateMultipathSeparation(t *testing.T) {
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(2)
	probes := twoPathObserve(t, gain, sector.TalonTX(), -30, 5, 40, 8, 5, quietModel(), rng)
	peaks := searchPeaks(t, est, probes, 3, 25)
	if len(peaks) < 2 {
		t.Fatalf("%d peak(s): the separation check needs two", len(peaks))
	}
	for i := 0; i < len(peaks); i++ {
		for j := i + 1; j < len(peaks); j++ {
			d := math.Abs(peaks[i].Az - peaks[j].Az)
			if d < 20 && math.Abs(peaks[i].El-peaks[j].El) < 20 {
				t.Fatalf("peaks %d and %d too close: %+v %+v", i, j, peaks[i], peaks[j])
			}
		}
	}
}

func TestSelectWithBackup(t *testing.T) {
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(3)
	model := quietModel()
	gotBackup := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		probes := twoPathObserve(t, gain, sector.TalonTX(), -40, 5, 35, 10, 4, model, rng)
		sel, err := est.SelectWithBackup(context.Background(), probes, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !sector.IsTalonTX(sel.Primary.Sector) {
			t.Fatalf("primary %v not a TX sector", sel.Primary.Sector)
		}
		if sel.HasBackup {
			gotBackup++
			if sel.Backup.Sector == sel.Primary.Sector {
				t.Fatal("backup equals primary")
			}
			// The backup must point at the secondary path: strong gain
			// toward it.
			if g := gain(sel.Backup.Sector, 35, 10); g < 0 {
				t.Fatalf("backup sector %v has gain %v toward the secondary path", sel.Backup.Sector, g)
			}
		}
	}
	if gotBackup < trials/2 {
		t.Fatalf("backup found in only %d/%d trials", gotBackup, trials)
	}
}

func TestSelectWithBackupSinglePath(t *testing.T) {
	// A clean single-path scene must still produce a primary; a backup
	// is optional but must never equal the primary.
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(4)
	probes := observe(t, gain, sector.TalonTX(), 10, 5, quietModel(), rng)
	sel, err := est.SelectWithBackup(context.Background(), probes, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := gain(sel.Primary.Sector, 10, 5); got < 5 {
		t.Fatalf("primary gain %v toward truth", got)
	}
	if sel.HasBackup && sel.Backup.Sector == sel.Primary.Sector {
		t.Fatal("backup equals primary")
	}
}

// identicalSelection reports whether two selections are bit for bit the
// same, NaN gains and angles included.
func identicalSelection(a, b Selection) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Sector == b.Sector && a.Fallback == b.Fallback && same(a.Gain, b.Gain) &&
		same(a.AoA.Az, b.AoA.Az) && same(a.AoA.El, b.AoA.El) && same(a.AoA.Corr, b.AoA.Corr) &&
		a.AoA.Used == b.AoA.Used && a.AoA.Cell == b.AoA.Cell &&
		a.Degraded == b.Degraded && a.FallbackReason == b.FallbackReason
}

// checkBackupParity fails unless SelectWithBackup's primary is exactly
// SelectSector's result for probes, error class included. It reports
// whether the selection fell back.
func checkBackupParity(t *testing.T, est *Estimator, label string, probes []Probe) (fallback bool) {
	t.Helper()
	ctx := context.Background()
	want, wantErr := est.SelectSector(ctx, probes)
	got, gotErr := est.SelectWithBackup(ctx, probes, 18)
	if !sameErrClass(gotErr, wantErr) {
		t.Fatalf("%s: SelectWithBackup error %v, SelectSector error %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		return false
	}
	if !identicalSelection(got.Primary, want) {
		t.Fatalf("%s: SelectWithBackup primary %+v, SelectSector %+v", label, got.Primary, want)
	}
	if got.HasBackup && got.Backup.Sector == got.Primary.Sector {
		t.Fatalf("%s: backup equals primary %v", label, got.Primary.Sector)
	}
	return want.Fallback
}

// TestSelectWithBackupPrimaryParity holds SelectWithBackup's primary to
// SelectSector's result on every trial of the clean (M = 8…32) and
// Standard60GHz faulty equivalence generators, fallbacks included: the
// backup search starts from the production estimate, so the two cannot
// disagree.
func TestSelectWithBackupPrimaryParity(t *testing.T) {
	set, gain := synthSetup(t)
	clean, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, faultyProbes := faultyTrials(t)
	trials, fallbacks := 0, 0
	for _, g := range []struct {
		est    *Estimator
		trials []probeTrial
	}{
		{clean, cleanTrials(t, gain)},
		{faulty, faultyProbes},
	} {
		for _, tr := range g.trials {
			trials++
			if checkBackupParity(t, g.est, tr.label, tr.probes) {
				fallbacks++
			}
		}
	}
	t.Logf("%d trials, %d fallbacks, 0 primary mismatches", trials, fallbacks)
	if fallbacks == 0 {
		t.Fatal("no trial fell back; the parity gate does not cover fallbacks")
	}
}
