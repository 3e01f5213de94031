package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"talon/internal/sector"
	"talon/internal/stats"
)

// TestEstimateZeroAllocSteadyState is the allocation-regression guard of
// the estimate hot path: after the scratch pools are warm, one
// estimate — hierarchical or exhaustive — must not allocate at all.
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
				if _, err := est.estimate(ctx, probes); err != nil {
					t.Fatal(err)
				}
			}
			var estErr error
			allocs := testing.AllocsPerRun(100, func() {
				_, estErr = est.estimate(ctx, probes)
			})
			if estErr != nil {
				t.Fatal(estErr)
			}
			if allocs != 0 {
				t.Fatalf("steady-state estimate allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestWarmZeroAllocSteadyState guards the hinted path: a one-item batch
// whose hint adds a refinement window — or, outside the grid, falls back
// to the plain refinement — must not allocate through
// SelectSectorBatchInto once the scratch pools are warm.
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
		t.Fatal("selection produced no hint cell")
	}
	ai, ei, _ := sel.AoA.Cell.split()
	numAz, numEl := len(est.en.az), len(est.en.el)
	for _, tc := range []struct {
		name string
		hint Cell
	}{
		// Two cells off the previous argmax: a drifted station's hint.
		{"hinted", cellOf(min(ai+2, numAz-1), min(ei+2, numEl-1))},
		{"cold-fallback", cellOf(numAz, numEl)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := []BatchItem{{Probes: probes, Hint: tc.hint}}
			out := make([]BatchResult, 0, 1)
			for i := 0; i < 5; i++ {
				if out, err = est.SelectSectorBatchInto(ctx, items, 1, out); err != nil {
					t.Fatal(err)
				}
			}
			var batchErr error
			allocs := testing.AllocsPerRun(100, func() {
				out, batchErr = est.SelectSectorBatchInto(ctx, items, 1, out)
			})
			if batchErr != nil {
				t.Fatal(batchErr)
			}
			if out[0].Err != nil {
				t.Fatal(out[0].Err)
			}
			if allocs != 0 {
				t.Fatalf("steady-state hinted selection allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestBatchZeroAllocSteadyState guards the batch-major quantized pass:
// once the engine's batch scratch pool is warm, a whole
// SelectSectorBatch performs exactly one allocation — the caller-visible
// result slice — regardless of batch size, and SelectSectorBatchInto
// with a reused result buffer performs none, also for a batch that spans
// several sub-chunks. Per-item gather buffers, quantized code vectors
// and top-K state all live in the pooled quantBatchScratch.
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
	batch := make([][]Probe, 4*batchChunk+3)
	for i := range batch {
		az := -60 + 120*rng.Float64()
		batch[i] = observe(t, gain, sector.TalonTX(), az, 7, quietModel(), rng)
	}
	ctx := context.Background()
	for _, n := range []int{24, len(batch)} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			items := BatchOf(batch[:n])
			// Warm the batch scratch pool (workers=1 keeps one chunk, so
			// one pooled scratch serves every run).
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

			// With a reused result buffer the pass allocates nothing at
			// all and returns exactly what SelectSectorBatch does.
			want, err := est.SelectSectorBatch(ctx, items, 1)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]BatchResult, 0, len(items))
			allocs = testing.AllocsPerRun(50, func() {
				buf, batchErr = est.SelectSectorBatchInto(ctx, items, 1, buf)
			})
			if batchErr != nil {
				t.Fatal(batchErr)
			}
			if allocs != 0 {
				t.Fatalf("steady-state SelectSectorBatchInto allocates %.1f times per call, want 0", allocs)
			}
			if len(buf) != len(want) {
				t.Fatalf("SelectSectorBatchInto returned %d results, want %d", len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("item %d: SelectSectorBatchInto %+v, SelectSectorBatch %+v", i, buf[i], want[i])
				}
			}
		})
	}
}

// TestBatchScratchBounded holds the kernel scratch a worker keeps to
// O(batchChunk), whatever the batch size: after a 16,384-item cold
// batch the pooled scratch holds at most batchChunk items, each with
// gather and code buffers no larger than append growth to the longest
// probe vector allows.
func TestBatchScratchBounded(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(53)
	const vectors = 16
	pool := make([][]Probe, vectors)
	for v := range pool {
		pool[v] = observe(t, gain, sector.TalonTX(), -60+120*rng.Float64(), 12, quietModel(), rng)
	}
	batch := make([]BatchItem, 16384)
	for i := range batch {
		batch[i].Probes = pool[i%vectors]
	}
	if _, err := est.SelectSectorBatch(context.Background(), batch, 1); err != nil {
		t.Fatal(err)
	}

	bs := est.en.getBatchScratch()
	defer est.en.putBatchScratch(bs)
	if n := len(bs.items); n > batchChunk {
		t.Fatalf("pooled scratch holds %d items after a %d-item batch, want <= %d", n, len(batch), batchChunk)
	}
	// append grows a slice to at most twice the longest vector.
	limit := 2 * len(sector.TalonTX())
	for i := range bs.items {
		it := &bs.items[i]
		for _, c := range []int{cap(it.snrDB), cap(it.rssiDB), cap(it.dS), cap(it.dR),
			cap(it.qv.cols), cap(it.qv.colsC), cap(it.qv.ps), cap(it.qv.pr)} {
			if c > limit {
				t.Fatalf("item %d keeps a %d-entry buffer, want <= %d", i, c, limit)
			}
		}
	}
}

// TestBackupZeroAllocSteadyState guards the backup search: once the
// scratch pool is warm, SelectWithBackup — production estimate,
// cancellation rounds and masked int16 scans — must not allocate, on a
// two-path scene that yields a backup and on a single-path one.
func TestBackupZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(59)
	ctx := context.Background()
	for _, tc := range []struct {
		name       string
		probes     []Probe
		wantBackup bool
	}{
		{"two-path", twoPathObserve(t, gain, sector.TalonTX(), -40, 5, 35, 10, 4, quietModel(), rng), true},
		{"single-path", observe(t, gain, sector.TalonTX(), 10, 5, quietModel(), rng), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				sel, err := est.SelectWithBackup(ctx, tc.probes, 18)
				if err != nil {
					t.Fatal(err)
				}
				if tc.wantBackup && !sel.HasBackup {
					t.Fatal("two-path scene produced no backup; the test would miss the cancellation rounds")
				}
			}
			var selErr error
			allocs := testing.AllocsPerRun(100, func() {
				_, selErr = est.SelectWithBackup(ctx, tc.probes, 18)
			})
			if selErr != nil {
				t.Fatal(selErr)
			}
			if allocs != 0 {
				t.Fatalf("steady-state SelectWithBackup allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestErrorPathZeroAlloc guards the per-item error path: a batch whose
// every estimate fails — no reported probe, one reported probe, or two
// (a degenerate surface) — and a SelectSector with no reported probe
// must not allocate, since a fleet serves such rounds every epoch. The
// errors are package-level values, so the test also pins their messages
// and their sentinels.
func TestErrorPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(59)
	ids := sector.TalonTX()
	silent := observe(t, gain, ids[:8], 10, 6, quietModel(), rng)
	for i := range silent {
		silent[i].OK = false
	}
	one := observe(t, gain, ids[:1], 10, 6, quietModel(), rng)
	two := observe(t, gain, ids[:2], 10, 6, quietModel(), rng)
	ctx := context.Background()

	for _, tc := range []struct {
		probes   []Probe
		sentinel error
		msg      string
	}{
		{silent, ErrTooFewProbes, "core: too few probes: need at least 2 reported probes, have 0"},
		{one, ErrTooFewProbes, "core: too few probes: need at least 2 reported probes, have 1"},
		{two, ErrDegenerateSurface, "core: correlation surface is degenerate"},
	} {
		_, err := est.estimate(ctx, tc.probes)
		if err == nil || err.Error() != tc.msg || !errors.Is(err, tc.sentinel) {
			t.Fatalf("estimate error %v, want %q wrapping %v", err, tc.msg, tc.sentinel)
		}
	}
	if _, err := est.finishSelection(silent, AoAEstimate{}, nil); err == nil ||
		err.Error() != "core: too few probes: no probe reported a measurement" || !errors.Is(err, ErrTooFewProbes) {
		t.Fatalf("selection without a reported probe: error %v", err)
	}

	items := make([]BatchItem, 0, 3*batchChunk)
	for i := 0; i < batchChunk; i++ {
		items = append(items, BatchItem{Probes: silent}, BatchItem{Probes: one}, BatchItem{Probes: two})
	}
	buf, err := est.SelectSectorBatchInto(ctx, items, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range buf {
		if i%3 == 0 && !errors.Is(r.Err, ErrTooFewProbes) {
			t.Fatalf("item %d (no reported probe): error %v, want ErrTooFewProbes", i, r.Err)
		}
		if i%3 != 0 && (r.Err != nil || !r.Selection.Fallback) {
			t.Fatalf("item %d: %+v, want a fallback selection", i, r)
		}
	}
	var batchErr, selErr error
	allocs := testing.AllocsPerRun(50, func() {
		buf, batchErr = est.SelectSectorBatchInto(ctx, items, 1, buf)
	})
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if allocs != 0 {
		t.Fatalf("failing batch allocates %.1f times per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		_, selErr = est.SelectSector(ctx, silent)
	})
	if !errors.Is(selErr, ErrTooFewProbes) {
		t.Fatalf("SelectSector with no reported probe: error %v, want ErrTooFewProbes", selErr)
	}
	if allocs != 0 {
		t.Fatalf("SelectSector with no reported probe allocates %.1f times per call, want 0", allocs)
	}
}
