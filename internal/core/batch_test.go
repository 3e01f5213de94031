package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// hintCounters reads the {hints, hint-decided} counters.
func hintCounters() [2]int64 {
	return [2]int64{metWarmHints.Value(), metWarmHits.Value()}
}

// hintDelta is how far the hint counters advanced since before.
func hintDelta(before [2]int64) [2]int64 {
	after := hintCounters()
	return [2]int64{after[0] - before[0], after[1] - before[1]}
}

// selectOne is the per-call reference of one batch item: the per-item
// estimate and finishSelection (SelectSector's pipeline) for a
// hintless item, a one-item batch for a hinted one. A hint outside the
// grid must change nothing, so its one-item batch is also held bit for
// bit to the hintless pipeline.
func selectOne(t *testing.T, est *Estimator, it BatchItem) BatchResult {
	t.Helper()
	ctx := context.Background()
	aoa, err := est.estimate(ctx, it.Probes)
	sel, err := est.finishSelection(it.Probes, aoa, err)
	plain := BatchResult{Selection: sel, Err: err}
	if it.Hint == NoCell {
		return plain
	}
	res, err := est.SelectSectorBatch(ctx, []BatchItem{it}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ai, ei, _ := it.Hint.split()
	if (ai >= len(est.en.az) || ei >= len(est.en.el)) && !identicalResult(res[0], plain) {
		t.Fatalf("out-of-grid hint %v: %+v, hintless %+v", it.Hint, res[0], plain)
	}
	return res[0]
}

// TestBatchMatchesSelectSector checks the batch contract: item i of
// SelectSectorBatch carries exactly what the per-call reference
// (selectOne) returns for batch[i]'s probes and hint, including
// per-item errors, at any worker count, and advances the hint counters
// by exactly as much as the per-call loop. A NoCell or out-of-grid hint
// selects exactly as SelectSector. It runs on the default search and on
// the exhaustive scan (ExactSearch), which ignores hints, so no hinted
// item is decided by its hint there.
func TestBatchMatchesSelectSector(t *testing.T) {
	set, gain := synthSetup(t)
	for _, tc := range []struct {
		name string
		opts Options
	}{{"hier", Options{}}, {"exhaustive", Options{ExactSearch: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			est, err := NewEstimator(set, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if est.en.hier() == tc.opts.ExactSearch {
				t.Fatalf("hierarchy built = %v under %+v", est.en.hier(), tc.opts)
			}
			testBatchMatchesSelectSector(t, est, gain)
		})
	}
}

func testBatchMatchesSelectSector(t *testing.T, est *Estimator, gain func(sector.ID, float64, float64) float64) {
	rng := stats.NewRNG(314)
	model := radio.DefaultMeasurementModel()
	ctx := context.Background()

	batch := make([][]Probe, 0, 12)
	for i := 0; i < 10; i++ {
		az := -75 + 15*float64(i)
		el := 3 * float64(i%4)
		batch = append(batch, observe(t, gain, sector.TalonTX(), az, el, model, rng))
	}
	// Item 10: nothing reported — estimate and sweep fallback both fail,
	// so the item carries an error without failing the batch.
	silent := make([]Probe, len(batch[0]))
	copy(silent, batch[0])
	for i := range silent {
		silent[i].OK = false
	}
	batch = append(batch, silent)
	// Item 11: a two-probe vector — fewer than three dictionary columns
	// zeroes the whole surface (degenerate), and the sweep fallback
	// resolves it into an error-free Fallback selection.
	degenerate := make([]Probe, 2)
	copy(degenerate, batch[0][:2])
	degenerate[0].OK, degenerate[1].OK = true, true
	batch = append(batch, degenerate)

	// Hinted items, as the fleet chains them: for each of the first ten
	// vectors, the cell of its own cold selection (the previous round's
	// cell), a cell far across the grid, a cell outside the grid and
	// NoCell.
	items := BatchOf(batch)
	numAz, numEl := len(est.en.az), len(est.en.el)
	for i := 0; i < 10; i++ {
		cold, err := est.SelectSector(ctx, batch[i])
		if err != nil {
			t.Fatal(err)
		}
		ai, ei, ok := cold.AoA.Cell.split()
		if !ok {
			t.Fatalf("item %d: cold selection carries no cell", i)
		}
		far := cellOf((ai+numAz/2)%numAz, (ei+numEl/2)%numEl)
		for _, hint := range []Cell{cold.AoA.Cell, far, cellOf(numAz, numEl), NoCell} {
			items = append(items, BatchItem{Probes: batch[i], Hint: hint})
		}
	}

	want := make([]BatchResult, len(items))
	before := hintCounters()
	for i, it := range items {
		want[i] = selectOne(t, est, it)
	}
	wantHints := hintDelta(before)
	if wantHints[0] != 30 {
		t.Fatalf("hint counter advanced by %d, want one per hinted item (30)", wantHints[0])
	}
	if !est.en.hier() && wantHints[1] != 0 {
		t.Fatalf("exhaustive scan: %d items decided by their hint, want 0", wantHints[1])
	}

	for _, workers := range []int{0, 1, 3, 64} {
		before := hintCounters()
		got, err := est.SelectSectorBatch(ctx, items, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := hintDelta(before); d != wantHints {
			t.Fatalf("workers=%d: {hints,hint-decided} advanced by %v, per-call loop by %v", workers, d, wantHints)
		}
		if len(got) != len(items) {
			t.Fatalf("workers=%d: %d results for %d items", workers, len(got), len(items))
		}
		for i := range got {
			if (got[i].Err == nil) != (want[i].Err == nil) ||
				(got[i].Err != nil && got[i].Err.Error() != want[i].Err.Error()) {
				t.Fatalf("workers=%d item %d: err = %v, want %v", workers, i, got[i].Err, want[i].Err)
			}
			if !sameSelection(got[i].Selection, want[i].Selection) {
				t.Fatalf("workers=%d item %d: selection = %+v, want %+v",
					workers, i, got[i].Selection, want[i].Selection)
			}
		}
	}
	if !errors.Is(want[10].Err, ErrTooFewProbes) {
		t.Fatalf("item 10 err = %v, want ErrTooFewProbes", want[10].Err)
	}
	if want[11].Err != nil || !want[11].Selection.Fallback {
		t.Fatalf("item 11 = %+v, want error-free fallback selection", want[11])
	}
}

// identicalResult reports whether two batch results match bit for bit:
// the same selection (gains compared by their bits, so NaN fallback
// gains match) and the same error text.
func identicalResult(a, b BatchResult) bool {
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return false
	}
	ga, gb := math.Float64bits(a.Selection.Gain), math.Float64bits(b.Selection.Gain)
	a.Selection.Gain, b.Selection.Gain = 0, 0
	return ga == gb && a.Selection == b.Selection
}

// mixedBatch returns n batch items cycling through every result class —
// unhinted, hinted on the vector's own unhinted cell, hinted far across
// the grid (a window away from every top-K one), hinted outside the
// grid, too few probes and a degenerate two-probe vector — with a class
// period (7)
// prime to batchChunk, so every class lands on both sides of each
// sub-chunk boundary.
func mixedBatch(t *testing.T, est *Estimator, gain func(sector.ID, float64, float64) float64, n int) []BatchItem {
	t.Helper()
	ctx := context.Background()
	rng := stats.NewRNG(2718)
	model := radio.DefaultMeasurementModel()
	const vectors = 23
	pool := make([][]Probe, vectors)
	cells := make([]Cell, vectors)
	for v := range pool {
		pool[v] = observe(t, gain, sector.TalonTX(), -70+140*rng.Float64(), 24*rng.Float64(), model, rng)
		cold, err := est.SelectSector(ctx, pool[v])
		if err != nil {
			t.Fatal(err)
		}
		cells[v] = cold.AoA.Cell
	}
	silent := make([]Probe, len(pool[0]))
	copy(silent, pool[0])
	for i := range silent {
		silent[i].OK = false
	}
	degenerate := make([]Probe, 2)
	copy(degenerate, pool[1][:2])
	degenerate[0].OK, degenerate[1].OK = true, true

	numAz, numEl := len(est.en.az), len(est.en.el)
	items := make([]BatchItem, n)
	for i := range items {
		v := i % vectors
		probes := pool[v]
		switch i % 7 {
		case 0, 6:
			items[i] = BatchItem{Probes: probes}
		case 1:
			items[i] = BatchItem{Probes: probes, Hint: cells[v]}
		case 2:
			ai, ei, _ := cells[v].split()
			items[i] = BatchItem{Probes: probes, Hint: cellOf((ai+numAz/2)%numAz, (ei+numEl/2)%numEl)}
		case 3:
			items[i] = BatchItem{Probes: probes, Hint: cellOf(numAz, numEl)}
		case 4:
			items[i] = BatchItem{Probes: silent, Hint: cells[v]}
		case 5:
			items[i] = BatchItem{Probes: degenerate}
		}
	}
	return items
}

// TestBatchChunkBoundaries checks the batch contract across sub-chunk
// boundaries: for batch sizes around multiples of batchChunk and worker
// counts that split them unevenly, every result equals the per-item
// reference (selectOne) bit for bit, and the hint counters advance
// exactly as much as the per-call loop.
func TestBatchChunkBoundaries(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	items := mixedBatch(t, est, gain, 1000)

	sawClass := map[string]bool{}
	for _, n := range []int{1, batchChunk - 1, batchChunk, batchChunk + 1, 2*batchChunk + 3, 1000} {
		batch := items[:n]
		want := make([]BatchResult, n)
		before := hintCounters()
		for i, it := range batch {
			want[i] = selectOne(t, est, it)
		}
		wantHints := hintDelta(before)
		if n == len(items) && wantHints[0] == 0 {
			t.Fatal("no hinted item reached the search")
		}
		for _, w := range want {
			switch {
			case errors.Is(w.Err, ErrTooFewProbes):
				sawClass["too-few"] = true
			case w.Err == nil && w.Selection.Fallback:
				sawClass["fallback"] = true
			case w.Err == nil:
				sawClass["selected"] = true
			}
		}
		for _, workers := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				before := hintCounters()
				got, err := est.SelectSectorBatch(ctx, batch, workers)
				if err != nil {
					t.Fatal(err)
				}
				if d := hintDelta(before); d != wantHints {
					t.Fatalf("{hints,hint-decided} advanced by %v, per-call loop by %v", d, wantHints)
				}
				if len(got) != n {
					t.Fatalf("%d results for %d items", len(got), n)
				}
				for i := range got {
					if !identicalResult(got[i], want[i]) {
						t.Fatalf("item %d (hint %v): batch %+v, per-call %+v", i, batch[i].Hint, got[i], want[i])
					}
				}
			})
		}
	}
	for _, class := range []string{"too-few", "fallback", "selected"} {
		if !sawClass[class] {
			t.Errorf("no %s item in the mixed batch", class)
		}
	}
}

// cancelAfterFirstChunk is a context that reports cancellation once the
// batch has written the last result of its first sub-chunk.
type cancelAfterFirstChunk struct {
	context.Context
	out []BatchResult
}

var errUnwritten = errors.New("unwritten")

func (c *cancelAfterFirstChunk) Err() error {
	if c.out[batchChunk-1].Err != errUnwritten {
		return context.Canceled
	}
	return nil
}

func TestBatchEmptyAndCancelled(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if res, err := est.SelectSectorBatch(ctx, nil, 0); res != nil || err != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", res, err)
	}

	rng := stats.NewRNG(7)
	probes := observe(t, gain, sector.TalonTX(), 10, 6, quietModel(), rng)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	res, err := est.SelectSectorBatch(cancelled, []BatchItem{{Probes: probes}}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled batch returned results: %v", res)
	}

	// A cancel that lands between two sub-chunks: the first sub-chunk
	// completes, the second never starts, and the batch fails whole —
	// also when no item reaches the tile sweep, whose per-tile check
	// would otherwise catch the cancel.
	mixed := mixedBatch(t, est, gain, 2*batchChunk+3)
	tooFew := make([]BatchItem, len(mixed))
	for i := range tooFew {
		tooFew[i].Probes = []Probe{{Sector: probes[0].Sector}}
	}
	for name, items := range map[string][]BatchItem{"mixed": mixed, "no-sweep": tooFew} {
		out := make([]BatchResult, len(items))
		for i := range out {
			out[i].Err = errUnwritten
		}
		mid := &cancelAfterFirstChunk{Context: ctx, out: out}
		res, err := est.SelectSectorBatchInto(mid, items, 1, out)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s batch cancelled after its first sub-chunk: err = %v, want context.Canceled", name, err)
		}
		if res != nil {
			t.Fatalf("%s batch cancelled after its first sub-chunk returned results: %v", name, res)
		}
		if out[batchChunk].Err != errUnwritten {
			t.Fatalf("%s batch: item %d was estimated after the cancel: %+v", name, batchChunk, out[batchChunk])
		}
	}
}
