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
// integer moment sweeps over contiguous slices (quant.go, block.go).
// Per-call scratch is recycled through an engine-owned free list (see
// tile.go).
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

	// Quantized int16 kernel (see quant.go / block.go / tile.go). dictQ
	// is the fixed-point twin of dict ([0, quantOne] amplitude codes)
	// and coarseQ its decimated copy over the coarse grid, both
	// sector-major: column col at point pt sits at [col*rowQ + pt] in
	// dictQ (pt = ei*numAz + ai) and at [col*rowC + pt] in coarseQ
	// (pt = ci*len(cAzIdx) + cj). Each row is the point count plus
	// blockLanes padding codes. tilePts is the L1 tile size of the
	// coarse sweeps, in grid points.
	dictQ      []int16
	coarseQ    []int16
	rowQ, rowC int
	tilePts    int

	// Free list of per-call scratch (getBatchScratch, tile.go).
	scratchMu   sync.Mutex
	scratchFree []*quantBatchScratch

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

// jointAt evaluates the joint Eq. 5 correlation at one dictionary base
// offset on the float64 dictionary: the engine twin of the serial
// reference's two Estimator.correlate calls at one grid point. The probe
// side comes centered from quantize; one pass over the
// correlated components sums Σx, and a second forms both centered dot
// products and the one Σ(x − x̄)² the two correlations share. Every
// accumulator keeps the serial arithmetic's operation order, so each
// factor is bit-identical to its correlate. The serial path multiplies
// unconditionally; when the SNR factor is exactly 0 the product is
// identically 0, so skipping the RSSI factor is value-preserving.
//
//talon:noalloc
func (en *engine) jointAt(base int, it *quantItem, snrOnly bool) float64 {
	cols := it.qv.colsC
	if len(cols) < 3 {
		return 0
	}
	d := en.dict[base : base+en.stride]
	var sumX float64
	for _, c := range cols {
		sumX += d[c]
	}
	meanX := sumX / float64(len(cols))
	dS, dR := it.dS[:len(cols)], it.dR[:len(cols)]
	var dotS, dotR, nx float64
	for i, c := range cols {
		dx := d[c] - meanX
		dotS += dS[i] * dx
		dotR += dR[i] * dx
		nx += dx * dx
	}
	v := pearsonW(dotS, it.nmS, nx)
	if v != 0 && !snrOnly {
		v *= pearsonW(dotR, it.nmR, nx)
	}
	return v
}

// pearsonW is the finish of Estimator.correlate from its centered sums:
// the squared Pearson correlation, 0 for a degenerate vector or an
// anti-correlated shape.
func pearsonW(dot, nm, nx float64) float64 {
	if nm == 0 || nx == 0 {
		return 0
	}
	w := dot * dot / (nm * nx)
	if dot < 0 {
		return 0
	}
	return w
}
