package core

import (
	"math"
	"sync"
	"time"

	"talon/internal/pattern"
	"talon/internal/sector"
)

// engine is the precomputed correlation engine behind EstimateAoA: a
// flat, cache-friendly [gridPoint][sector] dictionary of linear pattern
// amplitudes, built once per Estimator. The serial reference path calls
// Pattern.At (two binary-search brackets plus a bilinear interpolation)
// and math.Pow for every probed sector at every grid point of every
// estimate; the engine pays that cost exactly once at construction and
// quantizes the result to int16 codes, so the grid search reduces to
// integer moment sweeps over contiguous slices (quant.go). Per-call
// scratch is recycled through sync.Pools.
type engine struct {
	az, el []float64
	stride int        // dense dictionary columns per grid point
	cols   [256]int16 // sector ID -> dense column, -1 when absent
	// dict holds the linear amplitude of every sector at every grid
	// point, laid out [(ei*numAz+ai)*stride + col]; NaN marks points the
	// pattern does not cover (or covers with a non-finite sample).
	// Values are amp(Pattern.At(az, el)) — the exact quantity the serial
	// reference computes per call — so the float epilogue (quantEpilogue)
	// and the multipath search reproduce the reference's arithmetic.
	dict []float64

	// Hierarchical coarse-to-fine search (see hier.go): the dense az/el
	// indices of the decimated coarse grid, the refinement window radii
	// and the candidate count. Empty when the hierarchy is disabled
	// (ExactSearch, tiny grids, decimation < 2), in which case every
	// estimate runs the exhaustive dense scan.
	cAzIdx []int32 // dense az index of each coarse grid column
	cElIdx []int32 // dense el index of each coarse grid row
	winAz  int     // dense az radius refined around a candidate cell
	winEl  int     // dense el radius refined around a candidate cell
	topK   int     // coarse candidate cells refined per estimate

	// Quantized int16 kernel (see quant.go / tile.go). dictQ is the
	// fixed-point twin of dict ([0, quantOne] amplitude codes,
	// quantMissing for NaN) and coarseQ its decimated copy over the
	// coarse grid, laid out [(ci*len(cAzIdx)+cj)*stride + col]. tilePts
	// is the L1 tile size of the coarse sweeps, in grid points; fullQ
	// marks a dictionary with no missing entries, enabling the fused
	// hoisted-moment sweep (jointQFast).
	dictQ   []int16
	coarseQ []int16
	tilePts int
	fullQ   bool

	colBufs      sync.Pool // *[]int16 probe->column scratch
	hierScratch  sync.Pool // *hierScratch (see hier.go)
	batchScratch sync.Pool // *quantBatchScratch (see tile.go)
}

// newEngine precomputes the dictionary from the pattern set. Returns nil
// when the set is empty (the estimator then has nothing to search).
func newEngine(set *pattern.Set, opts Options) *engine {
	grid := set.Grid()
	if grid == nil {
		return nil
	}
	buildStart := time.Now() //lint:allow determinism -- dictionary-build histogram reads the wall clock by design
	defer metDictBuildSeconds.ObserveSince(buildStart)
	ids := set.IDs()
	en := &engine{
		az:     grid.Az(),
		el:     grid.El(),
		stride: len(ids),
	}
	for i := range en.cols {
		en.cols[i] = -1
	}
	for col, id := range ids {
		en.cols[id] = int16(col)
	}
	numAz, numEl := len(en.az), len(en.el)
	en.dict = make([]float64, numAz*numEl*en.stride)
	for col, id := range ids {
		p := set.Get(id)
		for ei, el := range en.el {
			base := ei * numAz * en.stride
			for ai, az := range en.az {
				// A sample the pattern does not cover, or one whose
				// amplitude is not finite, is a hole: both the float
				// epilogue and the quantized sweep skip it.
				v := amp(p.At(az, el))
				if math.IsInf(v, 0) {
					v = math.NaN()
				}
				en.dict[base+ai*en.stride+col] = v
			}
		}
	}
	en.colBufs.New = func() any {
		metScratchMisses.Inc()
		s := make([]int16, 0, 64)
		return &s
	}
	en.batchScratch.New = func() any {
		metScratchMisses.Inc()
		return &quantBatchScratch{}
	}
	en.buildCoarse(opts)
	en.buildQuant()
	return en
}

// buildCoarse lays out the decimated coarse grid of the hierarchical
// search (hier.go): every decim-th dense index per axis, plus the last
// dense index of each axis so the refinement windows (radius
// (decim+1)/2) of the coarse samples tile the whole dense grid.
// buildQuant copies the coarse dictionary rows out of the dense one at
// these indices. The hierarchy is skipped entirely — leaving every
// estimate on the exhaustive dense scan — when the options demand it or
// the coarse grid would not actually be smaller than the dense one.
func (en *engine) buildCoarse(opts Options) {
	if opts.ExactSearch {
		return
	}
	decim := opts.CoarseDecim
	if decim == 0 {
		decim = DefaultCoarseDecim
	}
	topK := opts.TopK
	if topK == 0 {
		topK = DefaultTopK
	}
	if decim < 2 || topK < 1 {
		return
	}
	numAz, numEl := len(en.az), len(en.el)
	cAz := decimateIndices(numAz, decim)
	cEl := decimateIndices(numEl, decim)
	if len(cAz)*len(cEl) >= numAz*numEl {
		return
	}
	en.cAzIdx, en.cElIdx = cAz, cEl
	en.winAz = (decim + 1) / 2
	en.winEl = (decim + 1) / 2
	en.topK = topK
	en.hierScratch.New = func() any {
		metScratchMisses.Inc()
		return newHierScratch(topK)
	}
}

// hier reports whether the hierarchical coarse-to-fine search is built.
func (en *engine) hier() bool { return len(en.cAzIdx) > 0 }

// decimateIndices returns every decim-th index of [0, n) plus the last
// index, so consecutive selected indices are at most decim apart and the
// axis endpoints are always sampled.
func decimateIndices(n, decim int) []int32 {
	out := make([]int32, 0, n/decim+2)
	for i := 0; i < n; i += decim {
		out = append(out, int32(i))
	}
	if last := int32(n - 1); len(out) == 0 || out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// probeCols maps probe sector IDs to dense dictionary columns (-1 for
// sectors absent from the set, mirroring the serial path's nil-pattern
// skip). The returned slice comes from a pool; release with putCols.
func (en *engine) probeCols(ids []sector.ID) *[]int16 {
	metScratchGets.Inc()
	buf := en.colBufs.Get().(*[]int16)
	cols := (*buf)[:0]
	for _, id := range ids {
		cols = append(cols, en.cols[id])
	}
	*buf = cols
	return buf
}

func (en *engine) putCols(buf *[]int16) { en.colBufs.Put(buf) }

// correlateAt is the engine twin of Estimator.correlate at one grid
// point: identical accumulation order, fixed 64-component capacity,
// missing-component skips and guards, but with the pattern lookup
// replaced by a contiguous dictionary read.
func (en *engine) correlateAt(base int, cols []int16, lin []float64) float64 {
	var xs, ps [64]float64
	used := 0
	var sumP, sumX float64
	for i, c := range cols {
		if c < 0 {
			continue
		}
		x := en.dict[base+int(c)]
		if math.IsNaN(x) {
			continue
		}
		if used >= len(xs) {
			break
		}
		ps[used], xs[used] = lin[i], x
		sumP += lin[i]
		sumX += x
		used++
	}
	if used < 3 {
		return 0
	}
	meanP, meanX := sumP/float64(used), sumX/float64(used)
	var dot, nm, nx float64
	for i := 0; i < used; i++ {
		dp, dx := ps[i]-meanP, xs[i]-meanX
		dot += dp * dx
		nm += dp * dp
		nx += dx * dx
	}
	if nm == 0 || nx == 0 {
		return 0
	}
	w := dot * dot / (nm * nx)
	if dot < 0 {
		return 0
	}
	return w
}

// jointAt evaluates the joint Eq. 5 correlation at one dictionary base
// offset. The serial path multiplies unconditionally; when the SNR
// correlation is exactly 0 the product is identically 0, so skipping the
// RSSI correlate is value-preserving.
func (en *engine) jointAt(pt int, cols []int16, snrLin, rssiLin []float64, snrOnly bool) float64 {
	v := en.correlateAt(pt, cols, snrLin)
	if v != 0 && !snrOnly {
		v *= en.correlateAt(pt, cols, rssiLin)
	}
	return v
}
