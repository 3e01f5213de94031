package core

// Hierarchical coarse-to-fine grid search.
//
// The exhaustive search scores every dense grid point (numAz × numEl
// correlations per estimate). Following the coarse-to-fine idea Rasekh
// et al. (HotMobile'17) use to make compressive path tracking tractable,
// the hierarchical search first scores a decimated coarse grid, keeps
// the top-K positively-correlated cells, and rescans only the dense
// windows around those cells (searchHierQ in quant.go). The window
// radius (decim+1)/2 is chosen so the windows of the coarse samples tile
// the dense grid: consecutive coarse indices are at most decim apart
// (decimateIndices forces the last index in), so every dense point lies
// within (decim+1)/2 of some coarse sample. Whenever the true dense
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

// Defaults of the hierarchical search. DefaultTopK is sized so the
// seeded hierarchical-vs-exhaustive equivalence suite passes while the
// refined point count stays a small fraction of the dense grid (on the
// default 91×9 campaign grid: 72 coarse points + ≤6 windows of ≤5×5
// points ≈ 1/4 of the 819 dense points).
const (
	// DefaultCoarseDecim decimates the coarse grid 4× per axis.
	DefaultCoarseDecim = 4
	// DefaultTopK refines the 6 best coarse cells.
	DefaultTopK = 6
)

// hierScratch is the pooled per-estimate scratch of the hierarchical
// search: the top-K candidate heap and the per-row interval buffers of
// the refinement scan. All slices are allocated once at full capacity.
type hierScratch struct {
	cells  []int32   // candidate coarse flat indices, descending score
	scores []float64 // candidate scores, parallel to cells
	azLo   []int32   // candidate dense windows
	azHi   []int32
	elLo   []int32
	elHi   []int32
	iv     []ivSpan // az interval merge buffer for one dense row
}

// ivSpan is one inclusive dense-az interval of the refinement scan.
type ivSpan struct{ lo, hi int32 }

func newHierScratch(topK int) *hierScratch {
	return &hierScratch{
		cells:  make([]int32, topK),
		scores: make([]float64, topK),
		azLo:   make([]int32, topK),
		azHi:   make([]int32, topK),
		elLo:   make([]int32, topK),
		elHi:   make([]int32, topK),
		iv:     make([]ivSpan, 0, topK),
	}
}

func (en *engine) getHierScratch() *hierScratch {
	metScratchGets.Inc()
	return en.hierScratch.Get().(*hierScratch)
}

func (en *engine) putHierScratch(sc *hierScratch) { en.hierScratch.Put(sc) }

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
