package core

import (
	"context"
	"math"
	"testing"

	"talon/internal/geom"
	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// synthSetup builds a synthetic codebook of gaussian beams spread over
// azimuth and a ground-truth gain oracle.
func synthSetup(t testing.TB) (*pattern.Set, func(id sector.ID, az, el float64) float64) {
	t.Helper()
	grid, err := geom.UniformGrid(-80, 80, 2, 0, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	type beam struct{ az, el, width float64 }
	beams := map[sector.ID]beam{}
	ids := sector.TalonTX()
	for i, id := range ids {
		beams[id] = beam{
			az:    -75 + 150*float64(i)/float64(len(ids)-1),
			el:    float64((i * 7) % 25),
			width: 14 + float64(i%3)*4,
		}
	}
	gain := func(id sector.ID, az, el float64) float64 {
		b := beams[id]
		d2 := (az-b.az)*(az-b.az) + 2*(el-b.el)*(el-b.el)
		return 12 - 19*(1-math.Exp(-d2/(2*b.width*b.width)))
	}
	set := pattern.NewSet()
	for _, id := range ids {
		id := id
		p := pattern.FromFunc(grid, func(az, el float64) float64 { return gain(id, az, el) })
		if err := set.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	return set, gain
}

// observe simulates probing: true gains plus the firmware defect model.
func observe(t testing.TB, gain func(sector.ID, float64, float64) float64, probed []sector.ID,
	az, el float64, model radio.MeasurementModel, rng *stats.RNG) []Probe {
	t.Helper()
	probes := make([]Probe, 0, len(probed))
	for _, id := range probed {
		m, ok := model.Observe(gain(id, az, el), rng)
		probes = append(probes, Probe{Sector: id, Meas: m, OK: ok})
	}
	return probes
}

func quietModel() radio.MeasurementModel {
	m := radio.DefaultMeasurementModel()
	m.SNRNoiseStdDB, m.RSSINoiseStdDB, m.LowSNRNoiseBoost = 0.1, 0.1, 0
	m.OutlierProb, m.BaseMissProb = 0, 0
	m.DecodeThresholdDB = -100
	return m
}

func TestNewEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(nil, Options{}); err == nil {
		t.Fatal("nil pattern set accepted")
	}
	small := pattern.NewSet()
	if _, err := NewEstimator(small, Options{}); err == nil {
		t.Fatal("empty pattern set accepted")
	}
}

func TestEstimateAoANoiseless(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	model := quietModel()
	for _, truth := range []struct{ az, el float64 }{
		{0, 0}, {-40, 6}, {33, 12}, {70, 3}, {-66, 21},
	} {
		probes := observe(t, gain, sector.TalonTX(), truth.az, truth.el, model, rng)
		aoa, err := est.estimate(context.Background(), probes)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(aoa.Az-truth.az) > 3 {
			t.Errorf("az estimate %v for truth %v", aoa.Az, truth.az)
		}
		if math.Abs(aoa.El-truth.el) > 5 {
			t.Errorf("el estimate %v for truth %v", aoa.El, truth.el)
		}
		if aoa.Used != 34 {
			t.Errorf("used = %d", aoa.Used)
		}
	}
}

func TestEstimateAoACompressive(t *testing.T) {
	// The headline property: a random M=14 subset estimates the angle
	// almost as well as the full sweep.
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2)
	model := radio.DefaultMeasurementModel()
	var errsAz []float64
	for trial := 0; trial < 120; trial++ {
		truthAz := rng.Uniform(-60, 60)
		truthEl := rng.Uniform(0, 20)
		probeSet, err := RandomProbes(rng, sector.TalonTX(), 14)
		if err != nil {
			t.Fatal(err)
		}
		probes := observe(t, gain, probeSet.IDs(), truthAz, truthEl, model, rng)
		aoa, err := est.estimate(context.Background(), probes)
		if err != nil {
			continue // all probes missed: counted as failure below
		}
		errsAz = append(errsAz, math.Abs(aoa.Az-truthAz))
	}
	if len(errsAz) < 110 {
		t.Fatalf("estimation failed in %d/120 trials", 120-len(errsAz))
	}
	med := stats.Median(errsAz)
	if med > 5 {
		t.Fatalf("median azimuth error %v° with 14 probes", med)
	}
}

func TestJointCorrelationBeatsOutliers(t *testing.T) {
	// Eq. 5 robustness: with heavy outliers, SNR-only estimation should
	// err more than the joint SNR·RSSI correlation.
	set, gain := synthSetup(t)
	joint, _ := NewEstimator(set, Options{})
	snrOnly, _ := NewEstimator(set, Options{SNROnly: true})
	model := radio.DefaultMeasurementModel()
	model.OutlierProb = 0.25
	model.OutlierScaleDB = 8
	rng := stats.NewRNG(3)
	var errJoint, errSNR []float64
	for trial := 0; trial < 250; trial++ {
		truthAz := rng.Uniform(-60, 60)
		probeSet, _ := RandomProbes(rng, sector.TalonTX(), 14)
		probes := observe(t, gain, probeSet.IDs(), truthAz, 5, model, rng)
		if a, err := joint.estimate(context.Background(), probes); err == nil {
			errJoint = append(errJoint, math.Abs(a.Az-truthAz))
		}
		if a, err := snrOnly.estimate(context.Background(), probes); err == nil {
			errSNR = append(errSNR, math.Abs(a.Az-truthAz))
		}
	}
	mj, ms := stats.Mean(errJoint), stats.Mean(errSNR)
	if mj >= ms {
		t.Fatalf("joint correlation (%.2f°) not better than SNR-only (%.2f°) under outliers", mj, ms)
	}
}

func TestSelectSectorPicksDominantBeam(t *testing.T) {
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(4)
	model := quietModel()
	for trial := 0; trial < 40; trial++ {
		truthAz := rng.Uniform(-70, 70)
		truthEl := rng.Uniform(0, 20)
		probeSet, _ := RandomProbes(rng, sector.TalonTX(), 16)
		probes := observe(t, gain, probeSet.IDs(), truthAz, truthEl, model, rng)
		sel, err := est.SelectSector(context.Background(), probes)
		if err != nil {
			t.Fatal(err)
		}
		// Compare against the true best over ALL sectors (not just the
		// probed ones): the point of Eq. 4.
		bestGain := math.Inf(-1)
		for _, id := range sector.TalonTX() {
			if g := gain(id, truthAz, truthEl); g > bestGain {
				bestGain = g
			}
		}
		if got := gain(sel.Sector, truthAz, truthEl); bestGain-got > 1.5 {
			t.Fatalf("trial %d: selected %v is %.2f dB below optimum", trial, sel.Sector, bestGain-got)
		}
	}
}

func TestSelectSectorCanPickUnprobedSector(t *testing.T) {
	// The selected sector may lie outside the probing subset: N >> M.
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(5)
	model := quietModel()
	sawUnprobed := false
	for trial := 0; trial < 60 && !sawUnprobed; trial++ {
		truthAz := rng.Uniform(-70, 70)
		probeSet, _ := RandomProbes(rng, sector.TalonTX(), 8)
		probes := observe(t, gain, probeSet.IDs(), truthAz, 5, model, rng)
		sel, err := est.SelectSector(context.Background(), probes)
		if err != nil {
			continue
		}
		if !probeSet.Contains(sel.Sector) {
			sawUnprobed = true
		}
	}
	if !sawUnprobed {
		t.Fatal("selection never left the probing subset")
	}
}

func TestEstimateAoAMissingProbes(t *testing.T) {
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(6)
	model := quietModel()
	// Aim near the surviving probes' beams so the readings carry shape.
	probes := observe(t, gain, sector.TalonTX()[:10], -70, 5, model, rng)
	// Kill all but three reports (the centered correlation needs three
	// components).
	for i := range probes {
		if i >= 3 {
			probes[i].OK = false
		}
	}
	if _, err := est.estimate(context.Background(), probes); err != nil {
		t.Fatalf("3 valid probes should still estimate: %v", err)
	}
	probes[2].OK = false
	probes[1].OK = false
	if _, err := est.estimate(context.Background(), probes); err == nil {
		t.Fatal("single probe accepted")
	}
	// SelectSector still works by falling back to the probed argmax.
	sel, err := est.SelectSector(context.Background(), probes)
	if err != nil || !sel.Fallback {
		t.Fatalf("fallback selection = %+v, %v", sel, err)
	}
}

func TestCorrelationPeaksAtTruth(t *testing.T) {
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(7)
	probes := observe(t, gain, sector.TalonTX(), -30, 9, quietModel(), rng)
	ids, snr, rssi, _ := est.gatherVectors(probes)
	joint := func(az, el float64) float64 {
		return est.correlate(ids, snr, az, el) * est.correlate(ids, rssi, az, el)
	}
	atTruth := joint(-30, 9)
	for _, off := range []struct{ az, el float64 }{{30, 9}, {-30, 25}, {60, 0}} {
		if v := joint(off.az, off.el); v >= atTruth {
			t.Fatalf("correlation at (%v,%v)=%v >= truth %v", off.az, off.el, v, atTruth)
		}
	}
	if atTruth <= 0 || atTruth > 1.0000001 {
		t.Fatalf("correlation out of range: %v", atTruth)
	}
}

func TestCorrelationScaleInvariance(t *testing.T) {
	// Normalized correlation must not care about constant dB offsets
	// (transmit power, path loss) — only the pattern shape matters.
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{SNROnly: true})
	rng := stats.NewRNG(8)
	probes := observe(t, gain, sector.TalonTX(), 10, 5, quietModel(), rng)
	shifted := make([]Probe, len(probes))
	copy(shifted, probes)
	for i := range shifted {
		shifted[i].Meas.SNR += 7 // constant offset
	}
	ids, a0, _, _ := est.gatherVectors(probes)
	_, b0, _, _ := est.gatherVectors(shifted)
	a := est.correlate(ids, a0, 10, 5)
	b := est.correlate(ids, b0, 10, 5)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("correlation not offset-invariant: %v vs %v", a, b)
	}
}

// TestRefinementImprovesResolution checks that the parabolic sub-grid
// refinement beats the grid-pinned azimuth of the same estimate's argmax
// cell (AoA.Cell).
func TestRefinementImprovesResolution(t *testing.T) {
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(9)
	model := quietModel()
	var errR, errC []float64
	for trial := 0; trial < 80; trial++ {
		truthAz := rng.Uniform(-60, 60)
		probes := observe(t, gain, sector.TalonTX(), truthAz, 5, model, rng)
		a, err := est.estimate(context.Background(), probes)
		if err != nil {
			continue
		}
		ai, _, ok := a.Cell.split()
		if !ok {
			t.Fatalf("trial %d: estimate carries no cell", trial)
		}
		errR = append(errR, math.Abs(a.Az-truthAz))
		errC = append(errC, math.Abs(est.en.az[ai]-truthAz))
	}
	if stats.Mean(errR) >= stats.Mean(errC) {
		t.Fatalf("refinement did not help: %.3f° vs %.3f°", stats.Mean(errR), stats.Mean(errC))
	}
}

func TestProbesFromMeasurements(t *testing.T) {
	meas := map[sector.ID]radio.Measurement{
		3: {SNR: 5, RSSI: -60},
	}
	probes := ProbesFromMeasurements([]sector.ID{3, 4}, meas)
	if len(probes) != 2 || !probes[0].OK || probes[1].OK {
		t.Fatalf("probes = %+v", probes)
	}
}
