package core

import (
	"math"
	"testing"

	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// windowOffsetOracle is the two-pass window offset that gatherQuant's
// first pass replaced: the maximum of the gathered vector over its
// in-dictionary components, then the lattice rounding.
func windowOffsetOracle(db []float64, cols []int16) float64 {
	maxDB := math.Inf(-1)
	for i, v := range db {
		if cols[i] >= 0 && v > maxDB {
			maxDB = v
		}
	}
	return math.Ceil((maxDB-radio.SNRMaxDB)/probeStepDB) * probeStepDB
}

// centerOracle is the separate pass over the gathered vector that
// quantize folded into its own: the linear amplitudes of the correlated
// components (the first len(colsC) in-dictionary ones), centered on
// their means, and their centered sums of squares.
func centerOracle(it *quantItem) (dS, dR []float64, nmS, nmR float64) {
	var sumS, sumR float64
	for i, c := range it.qv.cols {
		if c < 0 {
			continue
		}
		if len(dS) == len(it.qv.colsC) {
			break
		}
		s, r := ampCached(it.snrDB[i]), ampCached(it.rssiDB[i])
		dS = append(dS, s)
		dR = append(dR, r)
		sumS += s
		sumR += r
	}
	n := float64(len(dS))
	meanS, meanR := sumS/n, sumR/n
	for i := range dS {
		dS[i] -= meanS
		dR[i] -= meanR
		nmS += dS[i] * dS[i]
		nmR += dR[i] * dR[i]
	}
	return dS, dR, nmS, nmR
}

// prepReading draws one reading around base: on the quarter-dB lattice
// mostly, off it sometimes, and NaN or ±Inf now and then.
func prepReading(rng *stats.RNG, base float64) float64 {
	switch r := rng.Float64(); {
	case r < 0.04:
		return math.NaN()
	case r < 0.06:
		return math.Inf(1)
	case r < 0.08:
		return math.Inf(-1)
	case r < 0.2:
		return base + 25*rng.Float64()
	}
	return base + math.Round(100*rng.Float64())/4
}

// TestQuantPrepMatchesOracles pins the one-pass probe preparation —
// gatherQuant's window offsets and quantize's centered amplitudes — to
// the two-pass oracles it replaced, bit for bit: random vectors with
// NaN and ±Inf readings, unreported probes of sectors in and out of the
// dictionary, vectors whose only in-dictionary components are imputed,
// repeated sectors and vectors past the component cap. The multipath
// search's offsets (inDictMax of its cancelled vectors) are checked
// against the same oracle.
func TestQuantPrepMatchesOracles(t *testing.T) {
	set, _ := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := sector.TalonTX()
	rng := stats.NewRNG(167)
	it := &quantItem{}
	imputedOnly, absent := 0, 0
	for trial := 0; trial < 20000; trial++ {
		m := rng.Intn(80)
		pOK := []float64{0, 0.3, 0.8, 1}[trial%4]
		probes := make([]Probe, m)
		onlyImputed := trial%7 == 0
		for i := range probes {
			id := ids[rng.Intn(len(ids))]
			if rng.Float64() < 0.15 {
				id = sector.ID(200 + rng.Intn(40)) // absent from the dictionary
			}
			ok := rng.Float64() < pOK
			if onlyImputed {
				ok = est.en.cols[id] < 0
			}
			probes[i] = Probe{Sector: id, OK: ok, Meas: radio.Measurement{
				SNR:  prepReading(rng, -10),
				RSSI: prepReading(rng, -80),
			}}
		}
		est.gatherQuant(it, probes)
		if it.reported == 0 {
			continue
		}
		in, inReported := 0, 0
		for i, c := range it.qv.cols {
			if c >= 0 {
				in++
				if probes[i].OK {
					inReported++
				}
			}
		}
		if in > 0 && inReported == 0 {
			imputedOnly++
		}
		if in < len(it.qv.cols) {
			absent++
		}
		for _, v := range []struct {
			name string
			got  float64
			db   []float64
		}{{"SNR", it.offS, it.snrDB}, {"RSSI", it.offR, it.rssiDB}} {
			want := windowOffsetOracle(v.db, it.qv.cols)
			if !sameFloat(v.got, want) {
				t.Fatalf("trial %d: gather's %s offset %v, oracle %v (probes %+v)", trial, v.name, v.got, want, probes)
			}
			if got := windowOffset(inDictMax(v.db, it.qv.cols)); !sameFloat(got, want) {
				t.Fatalf("trial %d: inDictMax %s offset %v, oracle %v", trial, v.name, got, want)
			}
		}
		it.quantize(est.en.rowQ, est.en.rowC)
		dS, dR, nmS, nmR := centerOracle(it)
		if len(it.dS) != len(dS) || len(it.dR) != len(dR) {
			t.Fatalf("trial %d: %d/%d centered amplitudes, oracle %d/%d", trial, len(it.dS), len(it.dR), len(dS), len(dR))
		}
		for i := range dS {
			if !sameFloat(it.dS[i], dS[i]) || !sameFloat(it.dR[i], dR[i]) {
				t.Fatalf("trial %d component %d: dS, dR = %v, %v, oracle %v, %v", trial, i, it.dS[i], it.dR[i], dS[i], dR[i])
			}
		}
		if !sameFloat(it.nmS, nmS) || !sameFloat(it.nmR, nmR) {
			t.Fatalf("trial %d: nmS, nmR = %v, %v, oracle %v, %v", trial, it.nmS, it.nmR, nmS, nmR)
		}
	}
	if imputedOnly == 0 || absent == 0 {
		t.Fatalf("%d vectors with only imputed in-dictionary components and %d with absent sectors, want both", imputedOnly, absent)
	}
}

// sameFloat reports whether a and b have the same bits.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
