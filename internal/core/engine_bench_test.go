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

// benchEstimator builds an estimator over the default pattern-campaign
// grid (-90..90 step 2 × 0..32 step 4 — 819 grid points, the resolution
// the evaluation figures run at) with synthetic gaussian-beam patterns.
func benchEstimator(b *testing.B, opts Options) (*Estimator, []Probe) {
	b.Helper()
	grid, err := geom.UniformGrid(-90, 90, 2, 0, 32, 4)
	if err != nil {
		b.Fatal(err)
	}
	ids := sector.TalonTX()
	set := pattern.NewSet()
	for i, id := range ids {
		az0 := -85 + 170*float64(i)/float64(len(ids)-1)
		el0 := float64((i * 5) % 28)
		width := 13 + float64(i%4)*3
		p := pattern.FromFunc(grid, func(az, el float64) float64 {
			d2 := (az-az0)*(az-az0) + 2*(el-el0)*(el-el0)
			return 12 - 20*(1-math.Exp(-d2/(2*width*width)))
		})
		if err := set.Put(id, p); err != nil {
			b.Fatal(err)
		}
	}
	est, err := NewEstimator(set, opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(42)
	ps, err := RandomProbes(rng, ids, 14)
	if err != nil {
		b.Fatal(err)
	}
	probes := make([]Probe, 0, 14)
	for _, id := range ps.IDs() {
		probes = append(probes, Probe{
			Sector: id,
			Meas: radio.Measurement{
				SNR:  2 + float64(int(id)%13),
				RSSI: -70 + float64(int(id)%9),
			},
			OK: true,
		})
	}
	return est, probes
}

// BenchmarkEstimateAoA_Serial times the float64 serial oracle — per-call
// Pattern.At lookups and amplitude conversion at every grid point;
// BenchmarkEstimateAoA_Quant times the default production search
// (quantized int16 kernel, hierarchical, cache-tiled) and _QuantDense
// its exhaustive scan (ExactSearch). The same-run _Quant / _QuantDense
// ratio is what the hierarchy buys; CI gates it.
func BenchmarkEstimateAoA_Serial(b *testing.B) {
	est, probes := benchEstimator(b, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateAoASerial(probes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateAoA_Quant(b *testing.B) {
	est, probes := benchEstimator(b, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateAoA(context.Background(), probes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateAoA_QuantDense(b *testing.B) {
	est, probes := benchEstimator(b, Options{ExactSearch: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateAoA(context.Background(), probes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectSector_Serial(b *testing.B) {
	est, probes := benchEstimator(b, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SelectSectorSerial(probes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectSector_Quant(b *testing.B) {
	est, probes := benchEstimator(b, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SelectSector(context.Background(), probes); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProbesAt rebuilds a probe vector whose measurements are the
// benchEstimator gaussian-beam gains evaluated at one direction, so the
// correlation surface has a genuine peak there. The default probes'
// arbitrary SNR ramp is fine for timing a fixed-cost sweep, but the warm
// path's guards are score-dependent: a peakless surface would reject
// every hint and silently time the fallback instead.
func benchProbesAt(b *testing.B, ids []sector.ID, az, el float64) []Probe {
	b.Helper()
	idx := make(map[sector.ID]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	rng := stats.NewRNG(42)
	ps, err := RandomProbes(rng, ids, 14)
	if err != nil {
		b.Fatal(err)
	}
	probes := make([]Probe, 0, 14)
	for _, id := range ps.IDs() {
		i := idx[id]
		az0 := -85 + 170*float64(i)/float64(len(ids)-1)
		el0 := float64((i * 5) % 28)
		width := 13 + float64(i%4)*3
		d2 := (az-az0)*(az-az0) + 2*(el-el0)*(el-el0)
		g := 12 - 20*(1-math.Exp(-d2/(2*width*width)))
		probes = append(probes, Probe{
			Sector: id,
			Meas:   radio.Measurement{SNR: g, RSSI: -60 + g},
			OK:     true,
		})
	}
	return probes
}

// BenchmarkSelectSector_Warm times the warm-start hit path: the hint is
// the cell of a converged cold selection over the same probes, so every
// iteration accepts the dense local window and skips the coarse sweep.
// BenchmarkSelectSector_WarmCold runs the identical probe vector through
// the cold quantized search — the search cost depends on the surface the
// probes induce, so _Quant (arbitrary ramp probes) is not the right
// baseline. The _WarmCold / _Warm delta is the per-training saving a
// tracked fleet station sees between retrains.
func BenchmarkSelectSector_Warm(b *testing.B) {
	est, _ := benchEstimator(b, Options{})
	probes := benchProbesAt(b, sector.TalonTX(), 24, 9)
	sel, err := est.SelectSector(context.Background(), probes)
	if err != nil {
		b.Fatal(err)
	}
	if sel.AoA.Cell == NoCell || sel.Fallback {
		b.Fatalf("cold selection did not converge (cell %d, fallback %v)", sel.AoA.Cell, sel.Fallback)
	}
	hits := metWarmHits.Value()
	if _, err := est.SelectSectorWarm(context.Background(), probes, sel.AoA.Cell); err != nil {
		b.Fatal(err)
	}
	if metWarmHits.Value() == hits {
		b.Fatal("warm guards rejected the hint; benchmark would time the fallback path")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SelectSectorWarm(context.Background(), probes, sel.AoA.Cell); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectSector_WarmCold(b *testing.B) {
	est, _ := benchEstimator(b, Options{})
	probes := benchProbesAt(b, sector.TalonTX(), 24, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SelectSector(context.Background(), probes); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatch builds a campaign-sized batch of distinct probe vectors by
// rotating which measurement leads the vector — enough variety to defeat
// any accidental memoization without changing the per-item cost.
func benchBatch(b *testing.B, est *Estimator, probes []Probe, n int) []BatchItem {
	b.Helper()
	batch := make([]BatchItem, n)
	for i := range batch {
		v := make([]Probe, len(probes))
		for j := range probes {
			v[j] = probes[(i+j)%len(probes)]
		}
		batch[i].Probes = v
	}
	return batch
}

// BenchmarkSelectSectorBatch_Loop is the campaign shape the batch API
// replaced: the default SelectSector called per trial in a plain loop,
// streaming the coarse dictionary once per item.
// BenchmarkSelectSectorBatch_Quant runs the same trials through the
// batch-major quantized pass (tile.go), where a whole worker chunk
// shares one tiled dictionary sweep. The same-run _Quant / _Loop ratio
// is the batched-campaign saving; CI gates it.
func BenchmarkSelectSectorBatch_Loop(b *testing.B) {
	est, probes := benchEstimator(b, Options{})
	batch := benchBatch(b, est, probes, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range batch {
			if _, err := est.SelectSector(context.Background(), v.Probes); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSelectSectorBatch_Quant(b *testing.B) {
	est, probes := benchEstimator(b, Options{})
	batch := benchBatch(b, est, probes, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SelectSectorBatch(context.Background(), batch, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateMultipath_Engine(b *testing.B) {
	est, probes := benchEstimator(b, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateMultipath(context.Background(), probes, 2, 15, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}
