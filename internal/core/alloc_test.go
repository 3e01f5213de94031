package core

import (
	"context"
	"testing"

	"talon/internal/sector"
	"talon/internal/stats"
)

// TestEstimateZeroAllocSteadyState is the allocation-regression guard of
// the estimate hot path: after the scratch pools are warm, one
// EstimateAoA — hierarchical or exhaustive — must not allocate at all.
func TestEstimateZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	set, gain := synthSetup(t)
	rng := stats.NewRNG(41)
	probes := observe(t, gain, sector.TalonTX(), 24, 9, quietModel(), rng)
	ctx := context.Background()

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"quant-hierarchical", Options{}},
		{"exhaustive", Options{ExactSearch: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			est, err := NewEstimator(set, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the scratch pools.
			for i := 0; i < 5; i++ {
				if _, err := est.EstimateAoA(ctx, probes); err != nil {
					t.Fatal(err)
				}
			}
			var estErr error
			allocs := testing.AllocsPerRun(100, func() {
				_, estErr = est.EstimateAoA(ctx, probes)
			})
			if estErr != nil {
				t.Fatal(estErr)
			}
			if allocs != 0 {
				t.Fatalf("steady-state EstimateAoA allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestWarmZeroAllocSteadyState guards the warm-start path: a
// SelectSectorWarm with a live hint — whether the dense window accepts
// or the margin guard falls back to the full search — must not
// allocate once the scratch pools are warm.
func TestWarmZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(47)
	probes := observe(t, gain, sector.TalonTX(), 18, 9, quietModel(), rng)
	ctx := context.Background()
	sel, err := est.SelectSector(ctx, probes)
	if err != nil {
		t.Fatal(err)
	}
	if sel.AoA.Cell == NoCell {
		t.Fatal("cold selection produced no warm-start cell")
	}
	for _, tc := range []struct {
		name string
		hint Cell
	}{
		{"hinted", sel.AoA.Cell},
		{"cold-fallback", NoCell},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				if _, err := est.SelectSectorWarm(ctx, probes, tc.hint); err != nil {
					t.Fatal(err)
				}
			}
			var warmErr error
			allocs := testing.AllocsPerRun(100, func() {
				_, warmErr = est.SelectSectorWarm(ctx, probes, tc.hint)
			})
			if warmErr != nil {
				t.Fatal(warmErr)
			}
			if allocs != 0 {
				t.Fatalf("steady-state SelectSectorWarm allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestBatchZeroAllocSteadyState guards the batch-major quantized pass:
// once the engine's batch scratch pool is warm, a whole
// SelectSectorBatch performs exactly one allocation — the caller-visible
// result slice — regardless of batch size. Per-item gather buffers,
// quantized code vectors and top-K state all live in the pooled
// quantBatchScratch.
func TestBatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(43)
	batch := make([][]Probe, 24)
	for i := range batch {
		az := -60 + 120*rng.Float64()
		batch[i] = observe(t, gain, sector.TalonTX(), az, 7, quietModel(), rng)
	}
	ctx := context.Background()
	items := BatchOf(batch)
	// Warm the batch scratch pool (workers=1 keeps one chunk, so one
	// pooled scratch serves every run).
	for i := 0; i < 5; i++ {
		if _, err := est.SelectSectorBatch(ctx, items, 1); err != nil {
			t.Fatal(err)
		}
	}
	var batchErr error
	allocs := testing.AllocsPerRun(50, func() {
		_, batchErr = est.SelectSectorBatch(ctx, items, 1)
	})
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if allocs > 1 {
		t.Fatalf("steady-state SelectSectorBatch allocates %.1f times per call, want <= 1 (the result slice)", allocs)
	}
}
