package core

// Warm-start incremental re-estimation.
//
// A tracked station's angle of arrival moves at most a grid cell or two
// between retrains, so repeating the full coarse-to-fine search on every
// round re-derives what the previous round already knew. Following the
// in-sector compressive tracking of Masoumi et al. (arXiv:2308.13268)
// and the SLS-based local tracking of Grossi et al. (arXiv:1904.12835),
// the warm path skips the coarse pass entirely and scores only the dense
// neighbourhood around the previous argmax cell on the quantized int16
// dictionary: (2R+1)² point scores against the full search's coarse
// sweep plus top-K window refinement.
//
// Correctness contract: warm-start may only change cost, never the
// reported selection beyond the equivalence budget of the cold search.
// Three
// guards enforce it, and any failure falls back to the full quantized
// search bit for bit:
//
//   - The hint must unpack to a cell inside the engine's grid (stale
//     hints from a differently-shaped estimator are rejected, not
//     clamped).
//   - The local winner must be strictly interior to the scanned window —
//     an argmax on the window rim means the surface is still rising
//     toward a peak outside the neighbourhood, exactly the case where a
//     local search would track a side lobe. Window edges clamped at the
//     grid boundary count as interior: the dense grid itself ends there.
//   - The winner's score must clear the correlation margin
//     (warmMargin × the fallbackCorr threshold): scores between
//     the fallback threshold and the margin are kept on the full search,
//     so warm-start cannot convert a borderline estimate into a
//     different borderline estimate unseen.

// Cell names one dense grid cell of an estimator's correlation surface,
// used as the warm-start hint chained from a previous estimate. The zero
// value (NoCell) means "no usable hint"; any other value packs the
// argmax (azimuth, elevation) indices of the estimate that produced it.
// Cells are only meaningful to estimators over the same pattern grid.
type Cell int32

// NoCell is the absent hint: estimation runs the full search.
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

// Warm-start geometry and guard.
const (
	// warmRadius is the half-width, in dense grid cells per axis, of the
	// warm-start scan window. 4 covers the hierarchy's refinement window
	// (refineRadius = 2) plus two cells of inter-round drift.
	warmRadius = 4
	// warmMargin scales the fallbackCorr threshold into the warm
	// acceptance margin: local winners below warmMargin × fallbackCorr
	// are re-derived by the full search. 1.6 (correlation 0.40) sits just
	// above the band where the impaired-channel equivalence suite shows
	// local windows capturing side lobes — the one way a local search
	// loses a moving station — while keeping about two thirds of
	// fleet-sim hints on the fast path; every rejection costs a wasted
	// window scan on top of the full sweep, so margins much higher than
	// this make warm-start slower than running cold.
	warmMargin = 1.6
	// warmThreshold is the acceptance bar of the local winner's
	// quantized score; being positive, it also rejects degenerate
	// windows.
	warmThreshold = warmMargin * fallbackCorr
)

// warmArgmaxQ scans the dense (2·warmRadius+1)² window centred on the hint
// cell on the quantized dictionary and returns its argmax. ok is false —
// and the caller must run the full search — when the hint does not fit
// the grid, the window's best score fails the (positive) margin
// threshold, or sits on a non-grid-edge window rim (see the file comment
// for why rim winners are rejected). The window is one rectangle of the
// scan mask (scan.go), so the scan is strictly row-major with the
// strictly-greater update, matching every other quantized scan's
// tie-break order.
//
//talon:noalloc
func (en *engine) warmArgmaxQ(s *scanScratch, qv *quantVec, hint Cell, snrOnly bool) (bestA, bestE int, bestW float64, ok bool) {
	numAz, numEl := len(en.az), len(en.el)
	ha, he, valid := hint.split()
	if !valid || ha >= numAz || he >= numEl {
		return 0, 0, 0, false
	}
	aLo, aHi := int(clampIdx(ha-warmRadius, numAz)), int(clampIdx(ha+warmRadius, numAz))
	eLo, eHi := int(clampIdx(he-warmRadius, numEl)), int(clampIdx(he+warmRadius, numEl))
	s.markRect(numAz, aLo, aHi, eLo, eHi)
	best := en.scanMask(s, qv, snrOnly)
	bestA, bestE, bestW = best.a, best.e, best.w
	if bestW < warmThreshold {
		return bestA, bestE, bestW, false
	}
	if (bestA == aLo && aLo > 0) || (bestA == aHi && aHi < numAz-1) ||
		(bestE == eLo && eLo > 0) || (bestE == eHi && eHi < numEl-1) {
		return bestA, bestE, bestW, false
	}
	return bestA, bestE, bestW, true
}
