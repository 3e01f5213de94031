package core

import (
	"math"
	"testing"

	"talon/internal/radio"
	"talon/internal/stats"
)

// Property and fuzz tests of the fixed-point probe codec and the
// amplitude code table — the layer whose rounding behaviour the
// equivalence suite's divergence budget ultimately rests on.

// dequantizeProbe decodes a probe code back to dB: the codec's inverse,
// kept as the oracle of its round-trip bounds. Out-of-range codes
// clamp to the window bounds. Round-tripping any in-window dB value
// through quantizeProbe changes it by at most probeStepDB/2.
func dequantizeProbe(code int16) float64 {
	switch {
	case code < 0:
		code = 0
	case code > ProbeCodeMax:
		code = ProbeCodeMax
	}
	return radio.SNRMinDB + float64(code)*probeStepDB
}

// TestProbeCodecLatticeLossless: every value real firmware can report —
// the quarter-dB lattice across the clamp window — must round-trip
// through the codec exactly. The probe lattice subdivides the hardware
// quantum 4×, so each hardware point sits precisely on a code.
func TestProbeCodecLatticeLossless(t *testing.T) {
	steps := int((radio.SNRMaxDB - radio.SNRMinDB) / radio.SNRQuantumDB)
	for i := 0; i <= steps; i++ {
		db := radio.SNRMinDB + float64(i)*radio.SNRQuantumDB
		got := dequantizeProbe(quantizeProbe(db))
		if got != db {
			t.Fatalf("hardware lattice value %.4f dB round-trips to %.4f", db, got)
		}
	}
}

// TestProbeCodecRoundTrip: any in-window value, lattice-aligned or not,
// round-trips within half a code step (1/32 dB) — four times tighter
// than the half quarter-dB bound the kernel design budgets for.
func TestProbeCodecRoundTrip(t *testing.T) {
	rng := stats.NewRNG(61)
	for i := 0; i < 10000; i++ {
		db := radio.SNRMinDB + (radio.SNRMaxDB-radio.SNRMinDB)*rng.Float64()
		got := dequantizeProbe(quantizeProbe(db))
		if math.Abs(got-db) > probeStepDB/2+1e-12 {
			t.Fatalf("%.6f dB round-trips to %.6f (err %.6f > %.6f)",
				db, got, math.Abs(got-db), probeStepDB/2)
		}
	}
}

// TestProbeCodecSaturation pins the clamp behaviour at and beyond the
// window edges, mirroring the firmware's own reporting clamp.
func TestProbeCodecSaturation(t *testing.T) {
	cases := []struct {
		db   float64
		code int16
	}{
		{math.Inf(-1), 0},
		{-100, 0},
		{radio.SNRMinDB - 0.126, 0}, // more than half a step below
		{radio.SNRMinDB, 0},
		{radio.SNRMaxDB, ProbeCodeMax},
		{radio.SNRMaxDB + 0.126, ProbeCodeMax},
		{100, ProbeCodeMax},
		{math.Inf(1), ProbeCodeMax},
		{math.NaN(), 0},
	}
	for _, tc := range cases {
		if got := quantizeProbe(tc.db); got != tc.code {
			t.Errorf("quantizeProbe(%v) = %d, want %d", tc.db, got, tc.code)
		}
	}
	// Dequantize clamps out-of-range codes instead of reading out of the
	// window.
	if got := dequantizeProbe(-5); got != radio.SNRMinDB {
		t.Errorf("dequantizeProbe(-5) = %v, want window floor %v", got, radio.SNRMinDB)
	}
	if got := dequantizeProbe(ProbeCodeMax + 100); got != radio.SNRMaxDB {
		t.Errorf("dequantizeProbe(max+100) = %v, want window top %v", got, radio.SNRMaxDB)
	}
}

// TestProbeCodecMonotone: the codec must preserve ordering — a louder
// reading never gets a smaller code.
func TestProbeCodecMonotone(t *testing.T) {
	rng := stats.NewRNG(67)
	for i := 0; i < 10000; i++ {
		a := radio.SNRMinDB - 5 + (radio.SNRMaxDB-radio.SNRMinDB+10)*rng.Float64()
		b := radio.SNRMinDB - 5 + (radio.SNRMaxDB-radio.SNRMinDB+10)*rng.Float64()
		if a > b {
			a, b = b, a
		}
		if quantizeProbe(a) > quantizeProbe(b) {
			t.Fatalf("monotonicity broken: Q(%.4f)=%d > Q(%.4f)=%d",
				a, quantizeProbe(a), b, quantizeProbe(b))
		}
	}
}

// TestAmpCodesTable pins the amplitude table's shape: strictly positive,
// monotone non-decreasing in dB, full scale exactly at the window top,
// and every code within the int32-overflow budget of the correlator.
func TestAmpCodesTable(t *testing.T) {
	if got := ampCodes[ProbeCodeMax]; got != quantOne {
		t.Fatalf("window top encodes to %d, want full scale %d", got, quantOne)
	}
	for c, v := range ampCodes {
		if v <= 0 || v > quantOne {
			t.Fatalf("ampCodes[%d] = %d outside (0, %d]", c, v, quantOne)
		}
		if c > 0 && v < ampCodes[c-1] {
			t.Fatalf("ampCodes not monotone at %d: %d < %d", c, v, ampCodes[c-1])
		}
	}
	// The overflow argument of the moment kernel (block.go): the worst raw second moment at
	// the component cap must fit int32.
	worst := int64(quantMaxComponents) * int64(quantOne) * int64(quantOne)
	if worst > math.MaxInt32 {
		t.Fatalf("moment bound %d overflows int32", worst)
	}
}

// TestQuantizeVecLatticeAligned: a lattice-aligned vector (what real
// firmware reports) must hit the ampCodes table at exact lattice points
// after the window shift — i.e. windowOffset itself is lattice-aligned.
func TestQuantizeVecLatticeAligned(t *testing.T) {
	rng := stats.NewRNG(71)
	cols := make([]int16, 14)
	db := make([]float64, 14)
	for trial := 0; trial < 200; trial++ {
		// Random lattice readings with a random bulk offset (RSSI vectors
		// sit ~80 dB below SNR ones).
		offset := math.Floor(-90 + 100*rng.Float64())
		for i := range db {
			q := math.Round(rng.Float64()*76) * radio.SNRQuantumDB // 0..19 dB span
			db[i] = offset + q
			cols[i] = int16(i)
		}
		off := windowOffset(inDictMax(db, cols))
		maxDB := math.Inf(-1)
		for _, v := range db {
			maxDB = math.Max(maxDB, v)
		}
		for i, v := range db {
			c := ampCodes[quantizeProbe(v-off)]
			// Reconstruct the expected code: distance below the vector max
			// in probe steps, saturating at the floor.
			steps := math.Round((maxDB - db[i]) / probeStepDB)
			want := int16(ProbeCodeMax) - int16(steps)
			if want < 0 {
				want = 0
			}
			if c != ampCodes[want] {
				t.Fatalf("trial %d comp %d: code %d, want ampCodes[%d]=%d (db=%.2f max=%.2f)",
					trial, i, c, want, ampCodes[want], db[i], maxDB)
			}
		}
	}
}

// TestAmpCachedMatchesAmp pins the lattice cache to the live amp():
// table hits and misses alike must be bit-identical.
func TestAmpCachedMatchesAmp(t *testing.T) {
	rng := stats.NewRNG(79)
	for i := 0; i < 2000; i++ {
		lattice := math.Round(rng.Float64()*800-500) * 0.25 // on-lattice, partly out of table range
		if got, want := ampCached(lattice), amp(lattice); got != want {
			t.Fatalf("lattice %v: cached %v != live %v", lattice, got, want)
		}
		off := -130 + 180*rng.Float64()
		if got, want := ampCached(off), amp(off); got != want {
			t.Fatalf("off-lattice %v: cached %v != live %v", off, got, want)
		}
	}
	for _, db := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308} {
		got, want := ampCached(db), amp(db)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("edge %v: cached %v != live %v", db, got, want)
		}
	}
}

// FuzzQuantizeProbe fuzzes the codec over arbitrary float64 inputs: it
// must never panic, always produce an in-range code, stay monotone
// against a nudged twin, and round-trip in-window values within half a
// code step.
func FuzzQuantizeProbe(f *testing.F) {
	f.Add(0.0)
	f.Add(radio.SNRMinDB)
	f.Add(radio.SNRMaxDB)
	f.Add(radio.SNRMinDB - 0.125)
	f.Add(radio.SNRMaxDB + 0.125)
	f.Add(5.3721)
	f.Add(math.Inf(1))
	f.Add(math.Inf(-1))
	f.Add(math.NaN())
	f.Fuzz(func(t *testing.T, db float64) {
		code := quantizeProbe(db)
		if code < 0 || code > ProbeCodeMax {
			t.Fatalf("quantizeProbe(%v) = %d outside [0, %d]", db, code, ProbeCodeMax)
		}
		back := dequantizeProbe(code)
		if back < radio.SNRMinDB || back > radio.SNRMaxDB {
			t.Fatalf("dequantizeProbe(%d) = %v outside the window", code, back)
		}
		if !math.IsNaN(db) {
			if up := quantizeProbe(db + 1); !math.IsNaN(db+1) && up < code {
				t.Fatalf("monotonicity broken: Q(%v)=%d > Q(%v)=%d", db, code, db+1, up)
			}
			if db >= radio.SNRMinDB && db <= radio.SNRMaxDB {
				if math.Abs(back-db) > probeStepDB/2+1e-12 {
					t.Fatalf("in-window %v round-trips to %v", db, back)
				}
			}
		}
	})
}
