package core

import (
	"context"
	"sync"
)

// Batch-major quantized estimation: the one estimate pipeline.
//
// A per-item search walks the whole coarse dictionary once per item:
// with 64 items the dictionary is streamed from memory 64 times. The
// batch-major pass inverts the loops — dictionary tile outer, batch item
// inner — so one L1-resident tile of int16 codes serves every item of a
// sub-chunk before the next tile is touched (the access shape of a
// blocked GEMM, with coarseTopKQ's int32 accumulation as the inner
// product). Tiles are contiguous ranges of row-major grid points (in the
// sector-major dictionary, the same range of every sector's row) and
// coarseTopKQ folds them in ascending order, so each item's top-K is
// identical to a single-item row-major scan, whatever the chunk: an
// item's result never depends on which items share its sweep. Each
// worker walks its chunk in fixed sub-chunks of batchChunk items through
// one recycled scratch, so the scratch a worker holds is O(batchChunk)
// whatever the batch size.
// The single-call entry points (SelectSector, SelectWithBackup) run the
// same sub-chunk over one item, so every entry point shares the same
// per-item stages.

// batchChunk is how many items share one sweep of the coarse
// dictionary, and so how many quantItems one recycled scratch holds. 32,
// 64 and 128 measured the same per-item cost on a 1,024-item batch
// (EXPERIMENTS.md "Bounded-memory estimate pipeline"); a larger
// sub-chunk would only grow the scratch.
const batchChunk = 64

// tileBytes is the dictionary tile budget: half a typical 32 KiB L1D,
// leaving room for the probe vectors and top-K state of the items
// sharing the tile.
const tileBytes = 16 << 10

// tilePoints returns how many grid points of stride int16 codes fit one
// tile.
func tilePoints(stride int) int {
	pts := tileBytes / (2 * stride)
	if pts < 8 {
		pts = 8
	}
	return pts
}

// quantItem is the per-item state of one quantized estimate: the
// gathered readings in dB (snrDB/rssiDB) with their window offsets
// (offS/offR), the quantized code vectors with their column map (qv),
// the centered linear amplitudes of the float epilogue (dS/dR with
// their sums of squares nmS/nmR, see quantize),
// the coarse top-K candidates, and — once quantChunk has resolved the
// item — its estimate or error.
type quantItem struct {
	snrDB, rssiDB []float64
	offS, offR    float64
	qv            quantVec
	dS, dR        []float64
	nmS, nmR      float64
	reported      int
	inDict        int // gathered components whose sector is in the dictionary

	cells  [topK]int32   // coarse candidate flat indices, descending score
	scores [topK]float64 // candidate scores, parallel to cells
	kept   int

	done bool // aoa/err hold the item's result
	aoa  AoAEstimate
	err  error
}

// quantBatchScratch holds one sub-chunk's items; recycled through the
// engine's free list so steady-state estimates and batches allocate
// nothing. It has a fixed size: a batch of any length passes through it
// batchChunk items at a time, and each item's gather and code buffers
// keep the capacity of the largest probe vector they have held.
type quantBatchScratch struct {
	items [batchChunk]quantItem
	// scan is the mask, block list and coarse score buffer every search
	// of the scratch's items scores through (scan.go).
	scan scanScratch
	// skip is the multipath search's bitset of suppressed grid cells.
	skip []uint64
}

// getBatchScratch pops a scratch off the engine's free list, or
// allocates one when every scratch is in use. The list is shared by
// every P, unlike a sync.Pool's per-P slots, so a GOMAXPROCS change or a
// goroutine moving to another P still finds the scratch it returned. It
// holds at most as many scratches as the engine ever served at once,
// and the garbage collector never empties it.
func (en *engine) getBatchScratch() *quantBatchScratch {
	metScratchGets.Inc()
	en.scratchMu.Lock()
	if n := len(en.scratchFree); n > 0 {
		bs := en.scratchFree[n-1]
		en.scratchFree[n-1] = nil
		en.scratchFree = en.scratchFree[:n-1]
		en.scratchMu.Unlock()
		return bs
	}
	en.scratchMu.Unlock()
	metScratchMisses.Inc()
	return &quantBatchScratch{}
}

// putBatchScratch pushes a scratch back onto the free list.
func (en *engine) putBatchScratch(bs *quantBatchScratch) {
	en.scratchMu.Lock()
	en.scratchFree = append(en.scratchFree, bs)
	en.scratchMu.Unlock()
}

// selectBatchQuant runs the batch through the batch-major quantized
// pipeline, filling out[i] with batch[i]'s selection: SelectSector's
// for a hintless item, the hint-widened refinement's (hier.go) for a
// hinted one.
// Items are split into contiguous per-worker chunks; the split only
// affects which items share a dictionary sweep, never any item's result.
// Returns non-nil only on context cancellation, in which case out is
// discarded by the caller.
func (e *Estimator) selectBatchQuant(ctx context.Context, batch []BatchItem, out []BatchResult, workers int) error {
	n := len(batch)
	if workers <= 1 {
		return e.selectChunk(ctx, batch, out)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			// Cancellation is surfaced via ctx.Err() below.
			_ = e.selectChunk(ctx, batch[lo:hi], out[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	return ctx.Err()
}

// selectChunk estimates one worker's contiguous chunk, batchChunk items
// at a time through one recycled scratch, and finishes every item into its
// sector selection. ctx is observed before each sub-chunk (and inside
// its sweep); a cancelled chunk returns ctx.Err() with out incomplete.
//
//talon:noalloc
func (e *Estimator) selectChunk(ctx context.Context, batch []BatchItem, out []BatchResult) error {
	bs := e.en.getBatchScratch()
	defer e.en.putBatchScratch(bs)
	for lo := 0; lo < len(batch); lo += batchChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+batchChunk, len(batch))
		items := bs.items[:hi-lo]
		metSelectEngine.Add(int64(hi - lo))
		tiles, err := e.quantChunk(ctx, &bs.scan, batch[lo:hi], items)
		metQuantBatchTiles.Add(int64(tiles))
		if err != nil {
			return err
		}
		for i := range items {
			it := &items[i]
			sel, serr := e.finishSelection(batch[lo+i].Probes, it.aoa, it.err)
			out[lo+i] = BatchResult{Selection: sel, Err: serr}
		}
	}
	return nil
}

// quantChunk estimates one sub-chunk into items (parallel to batch, at
// most batchChunk long): gather and quantize every item, sweep the
// coarse dictionary tiles once for the sub-chunk, then refine each
// item. Every item it resolves gets done set, with its
// estimate or its per-item error (ErrTooFewProbes, ErrDegenerateSurface)
// in aoa/err. tiles counts the coarse tiles swept; err is non-nil only
// on context cancellation, which leaves the unresolved items without a
// result. Every scan scores through s, whose work-unit counts are
// flushed once on return.
//
//talon:noalloc
func (e *Estimator) quantChunk(ctx context.Context, s *scanScratch, batch []BatchItem, items []quantItem) (tiles int, err error) {
	en := e.en
	snrOnly := e.opts.SNROnly
	s.grow(en)
	defer s.flush()

	// Phase 1: gather + quantize each item's probe vector. Items that
	// fail the gather are resolved here and skip the shared sweep.
	live := 0
	for i := range items {
		it := &items[i]
		metEstimates.Inc()
		metQuantEstimates.Inc()
		it.kept, it.done, it.aoa, it.err = 0, false, AoAEstimate{}, nil
		e.gatherQuant(it, batch[i].Probes)
		if it.reported < 2 {
			it.err = tooFewReported(it.reported)
			it.done = true
			continue
		}
		it.quantize(en.rowQ, en.rowC)
		if batch[i].Hint != NoCell {
			metWarmHints.Inc()
		}
		live++
	}

	// Phase 2: shared tiled coarse sweep — every live item scores the
	// current tile in one kernel call and folds it into its top-K while
	// the tile is cache-hot.
	if live > 0 {
		nPts := len(en.cAzIdx) * len(en.cElIdx)
		for lo := 0; lo < nPts; lo += en.tilePts {
			if err := ctx.Err(); err != nil {
				return tiles, err
			}
			tiles++
			hi := min(lo+en.tilePts, nPts)
			s.tileBlocks(lo, hi)
			for i := range items {
				if it := &items[i]; !it.done {
					en.coarseTopKQ(s, lo, hi, it, snrOnly)
				}
			}
		}
	}

	// Phase 3: per-item dense refinement (the top-K windows plus the
	// hint's, see hier.go), or the exhaustive scan when the coarse pass
	// kept no candidate (always, under ExactSearch).
	for i := range items {
		it := &items[i]
		if it.done {
			continue
		}
		var bestA, bestE int
		var bestW float64
		var err error
		if it.kept == 0 {
			if len(en.coarseQ) > 0 {
				metQuantFallbacks.Inc()
			}
			bestA, bestE, bestW, err = en.denseArgmaxQ(ctx, s, &it.qv, nil, snrOnly)
		} else {
			bestA, bestE, bestW, err = en.refineQ(ctx, s, it, batch[i].Hint, snrOnly)
		}
		if err != nil {
			return tiles, err
		}
		it.done = true
		if bestW <= 0 {
			metDegenerate.Inc()
			it.err = errDegenerate
			continue
		}
		it.aoa = e.quantEpilogue(it, bestA, bestE)
	}
	return tiles, nil
}
