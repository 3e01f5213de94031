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
		if _, err := est.estimate(context.Background(), probes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateAoA_QuantDense(b *testing.B) {
	est, probes := benchEstimator(b, Options{ExactSearch: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.estimate(context.Background(), probes); err != nil {
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

// BenchmarkSelectSector_QuantGeneric is _Quant with every block scored
// by the portable Go block instead of the AVX2 kernel: the same-run
// _Quant / _QuantGeneric ratio is what the assembly buys, and CI gates
// it. Where the init check found no AVX2 both run the generic block.
func BenchmarkSelectSector_QuantGeneric(b *testing.B) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	useAVX2 = false
	BenchmarkSelectSector_Quant(b)
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

// BenchmarkSelectWithBackup times the backup selection (the production
// estimate, then up to two cancellation rounds and masked int16 scans at
// 18° separation); CI gates it against BenchmarkSelectSector_Quant in the
// same run.
func BenchmarkSelectWithBackup(b *testing.B) {
	est, probes := benchEstimator(b, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SelectWithBackup(context.Background(), probes, 18); err != nil {
			b.Fatal(err)
		}
	}
}
