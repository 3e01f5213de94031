package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"talon/internal/geom"
	"talon/internal/pattern"
)

// engine is the precomputed correlation engine behind every estimate: a
// flat, cache-friendly [gridPoint][sector] dictionary of linear pattern
// amplitudes, built once per Estimator. The serial reference path calls
// Pattern.At (two binary-search brackets plus a bilinear interpolation)
// and math.Pow for every probed sector at every grid point of every
// estimate; the engine pays that cost exactly once at construction and
// quantizes the result to int16 codes, so the grid search reduces to
// integer moment sweeps over contiguous slices (quant.go). Per-call
// scratch is recycled through one sync.Pool (see tile.go).
type engine struct {
	az, el []float64
	stride int        // dense dictionary columns per grid point
	cols   [256]int16 // sector ID -> dense column, -1 when absent
	// dict holds the linear amplitude of every sector at every grid
	// point, laid out [(ei*numAz+ai)*stride + col]; every entry is
	// finite (newEngine rejects holes with ErrPatternHole). Values are
	// amp(Pattern.At(az, el)) — the exact quantity the serial reference
	// computes per call — so the float epilogue (quantEpilogue), its
	// only reader, reproduces the reference's arithmetic.
	dict []float64

	// Hierarchical coarse-to-fine search (see hier.go): the dense az/el
	// indices of the decimated coarse grid. Empty when the hierarchy is
	// disabled (ExactSearch, tiny grids), in which case every estimate
	// runs the exhaustive dense scan.
	cAzIdx []int32 // dense az index of each coarse grid column
	cElIdx []int32 // dense el index of each coarse grid row

	// Quantized int16 kernel (see quant.go / tile.go). dictQ is the
	// fixed-point twin of dict ([0, quantOne] amplitude codes) and
	// coarseQ its decimated copy over the coarse grid, laid out
	// [(ci*len(cAzIdx)+cj)*stride + col]. tilePts is the L1 tile size of
	// the coarse sweeps, in grid points.
	dictQ   []int16
	coarseQ []int16
	tilePts int

	batchScratch sync.Pool // *quantBatchScratch (see tile.go)

	dirs []geom.Direction // unit vector of every dense grid cell, row-major (multipath.go)
}

// newEngine precomputes the dictionary from a non-empty pattern set;
// exact skips the hierarchical coarse grid (Options.ExactSearch). A grid
// point where some sector's amplitude is not finite — a gap Pattern.At
// cannot fill from a neighbouring sample, or an infinite sample — fails
// with ErrPatternHole.
func newEngine(set *pattern.Set, exact bool) (*engine, error) {
	grid := set.Grid()
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
	for _, el := range en.el {
		for _, az := range en.az {
			en.dirs = append(en.dirs, geom.FromAngles(az, el))
		}
	}
	en.dict = make([]float64, numAz*numEl*en.stride)
	for col, id := range ids {
		p := set.Get(id)
		for ei, el := range en.el {
			base := ei * numAz * en.stride
			for ai, az := range en.az {
				v := amp(p.At(az, el))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("core: %w: sector %v at (%g°, %g°)", ErrPatternHole, id, az, el)
				}
				en.dict[base+ai*en.stride+col] = v
			}
		}
	}
	en.batchScratch.New = func() any {
		metScratchMisses.Inc()
		return &quantBatchScratch{}
	}
	if !exact {
		en.buildCoarse()
	}
	en.buildQuant()
	return en, nil
}

// buildCoarse lays out the decimated coarse grid of the hierarchical
// search (hier.go): every coarseDecim-th dense index per axis, plus the
// last dense index of each axis so the refinement windows (radius
// refineRadius) of the coarse samples tile the whole dense grid.
// buildQuant copies the coarse dictionary rows out of the dense one at
// these indices. The hierarchy is skipped — leaving every estimate on
// the exhaustive dense scan — when the coarse grid would not actually be
// smaller than the dense one.
func (en *engine) buildCoarse() {
	numAz, numEl := len(en.az), len(en.el)
	cAz := decimateIndices(numAz, coarseDecim)
	cEl := decimateIndices(numEl, coarseDecim)
	if len(cAz)*len(cEl) >= numAz*numEl {
		return
	}
	en.cAzIdx, en.cElIdx = cAz, cEl
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

// correlateAt is the engine twin of Estimator.correlate at one grid
// point: identical accumulation order, fixed 64-component capacity,
// absent-sector skips and guards, but with the pattern lookup replaced
// by a contiguous dictionary read.
func (en *engine) correlateAt(base int, cols []int16, lin []float64) float64 {
	var xs, ps [64]float64
	used := 0
	var sumP, sumX float64
	for i, c := range cols {
		if c < 0 {
			continue
		}
		x := en.dict[base+int(c)]
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
