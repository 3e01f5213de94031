package core

import (
	"context"
	"math"
	"runtime"
	"time"
)

// BatchResult pairs one batch item's selection with its error. Errors
// are per item (a degenerate vector fails its item, not the batch) and
// match what SelectSector would return for the same probes.
type BatchResult struct {
	Selection Selection
	Err       error
}

// BatchItem is one independent selection of a batch: a probe vector plus
// an optional warm-start hint (the Cell of the item's previous
// selection; NoCell runs the full search). Hints follow the warm-start
// contract (warm.go) — they can only change cost, never the selection
// beyond the equivalence budget.
type BatchItem struct {
	Probes []Probe
	Hint   Cell
}

// BatchOf wraps plain probe vectors as hintless batch items, for callers
// without warm-start state.
func BatchOf(batch [][]Probe) []BatchItem {
	items := make([]BatchItem, len(batch))
	for i, probes := range batch {
		items[i].Probes = probes
	}
	return items
}

// SelectSectorBatch runs the full CSS pipeline over a batch of
// independent probe vectors through the batch-major quantized pass
// (tile.go): items are split into contiguous per-worker chunks, each
// worker walks its chunk 64 items at a time through one recycled scratch,
// and each 64-item sub-chunk shares one tiled sweep of the coarse
// dictionary instead of streaming it once per item as a SelectSector
// loop would. The scratch a call holds is thus bounded by the worker
// count, not the batch size. workers <= 0
// picks GOMAXPROCS; any value is capped at GOMAXPROCS and at the batch
// size. Per-item results are deterministic at any worker count; a
// hintless item's result is identical to SelectSector's, and a hinted
// item falls back to exactly that search when the warm guards reject
// its hint.
//
// ctx is observed between sub-chunks and inside each sub-chunk's grid
// search; on cancellation the batch returns ctx.Err() and the results
// are discarded.
func (e *Estimator) SelectSectorBatch(ctx context.Context, batch []BatchItem, workers int) ([]BatchResult, error) {
	return e.SelectSectorBatchInto(ctx, batch, workers, nil)
}

// SelectSectorBatchInto is SelectSectorBatch writing the results into
// out's backing array when it has room for len(batch) of them, so a
// caller serving batches in a loop reuses one buffer instead of
// allocating a result slice per call. It returns out resliced (or, when
// too small, replaced) to len(batch).
func (e *Estimator) SelectSectorBatchInto(ctx context.Context, batch []BatchItem, workers int, out []BatchResult) ([]BatchResult, error) {
	n := len(batch)
	if n == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	metBatches.Inc()
	metBatchEstimates.Add(int64(n))
	metBatchSize.Set(int64(n))
	start := time.Now() //lint:allow determinism -- batch-latency histogram reads the wall clock by design
	defer metBatchSeconds.ObserveSince(start)
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	if workers > n {
		workers = n
	}
	rounds := math.Ceil(float64(n) / float64(workers))
	metBatchOccupancy.Set(float64(n) / (float64(workers) * rounds))

	if cap(out) < n {
		out = make([]BatchResult, n)
	}
	out = out[:n]
	if err := e.selectBatchQuant(ctx, batch, out, workers); err != nil {
		return nil, err
	}
	return out, nil
}
