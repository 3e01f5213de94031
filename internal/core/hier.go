package core

// Hierarchical coarse-to-fine grid search.
//
// The exhaustive search scores every dense grid point (numAz × numEl
// correlations per estimate). Following the coarse-to-fine idea Rasekh
// et al. (HotMobile'17) use to make compressive path tracking tractable,
// the hierarchical search first scores a decimated coarse grid, keeps
// the top-K positively-correlated cells, and rescans only the dense
// windows around those cells (coarseTopKQ and refineQ in quant.go, driven
// per tile by quantChunk in tile.go). The window radius refineRadius =
// (coarseDecim+1)/2 is chosen so the windows of the coarse samples tile
// the dense grid: consecutive coarse indices are at most coarseDecim
// apart (decimateIndices forces the last index in), so every dense point
// lies within refineRadius of some coarse sample. Whenever the true dense
// argmax sits in a window that ranks among the top-K coarse cells —
// which the equivalence suite (hier_test.go) shows holds for essentially
// all realistic probe vectors — the result is bit identical to the
// exhaustive scan (Options.ExactSearch): both score shared points from
// the same int16 codes, scan candidates in the dense row-major order,
// and break ties by the same strictly-greater rule.
//
// When the coarse pass finds no positive cell at all (degenerate or
// adversarial surfaces), the search falls back to the exhaustive dense
// scan, so hierarchical mode never loses the disaster-guard semantics
// of the exact path.
//
// A batch item may carry a hint: the Cell of its previous estimate. A
// tracked station's angle of arrival moves a cell or two between
// retrains, so, in the spirit of the in-sector tracking of Masoumi et
// al. (arXiv:2308.13268), the hint cell's refineRadius window joins the
// top-K windows in the refinement mask: one more refinement centre, no
// second search. The contract is exact: a hinted item's result is the
// row-major, strictly-greater argmax over the union of its top-K windows
// and the hint window, so its score is never below the unhinted one and
// its result equals the unhinted one unless the winner lies outside
// every top-K window (the item is then hint-decided, counted by
// core_warm_hits_total). A hint outside the grid is ignored, and so is
// every hint on the exhaustive paths (the dense fallback and
// Options.ExactSearch), which already scan every point.

// Geometry of the hierarchical search. topK is sized so the seeded
// hierarchical-vs-exhaustive equivalence suite passes while the refined
// point count stays a small fraction of the dense grid (on the default
// 91×9 campaign grid: 72 coarse points + ≤6 windows of ≤5×5 points ≈ 1/4
// of the 819 dense points). They are fixed rather than tunable; a search
// that is exact by construction (branch-and-bound) would retire them.
const (
	// coarseDecim decimates the coarse grid 4× per axis.
	coarseDecim = 4
	// refineRadius is the dense half-width refined around a candidate
	// coarse cell, per axis: the windows of consecutive coarse samples
	// (at most coarseDecim apart) then tile the dense grid.
	refineRadius = (coarseDecim + 1) / 2
	// topK is the number of best coarse cells refined per estimate.
	topK = 6
)

// clampIdx clamps i into [0, n).
func clampIdx(i, n int) int32 {
	if i < 0 {
		return 0
	}
	if i >= n {
		return int32(n - 1)
	}
	return int32(i)
}

// Cell names one dense grid cell of an estimator's correlation surface,
// used as the hint chained from a previous estimate. The zero value
// (NoCell) means "no hint"; any other value packs the argmax (azimuth,
// elevation) indices of the estimate that produced it. Cells are only
// meaningful to estimators over the same pattern grid.
type Cell int32

// NoCell is the absent hint: the refinement scores the top-K windows
// alone.
const NoCell Cell = 0

// cellOf packs dense grid indices into a non-zero Cell.
//
//talon:noalloc
func cellOf(ai, ei int) Cell { return Cell(ei<<16|ai) + 1 }

// split unpacks a Cell into grid indices; ok is false for NoCell.
// Callers must still bounds-check against their own grid.
//
//talon:noalloc
func (c Cell) split() (ai, ei int, ok bool) {
	if c == NoCell {
		return 0, 0, false
	}
	v := int32(c - 1)
	return int(v & 0xffff), int(v >> 16), true
}
