package core

import "math/bits"

// Mask scans: every quantized search scores its grid points through one
// routine. A search marks the points it wants in a bitmask over the
// flat grid (row-major, point ei·numAz + ai), cover packs the marked
// points into eight-lane blocks — each block starts at the first marked
// point at or after the previous start + blockLanes, so no point is
// scored twice and a block may run on into the next grid row, whose
// codes follow contiguously in the sector-major dictionary — and one
// argmaxBlocks call scores the whole block list and returns its argmax.
// The kernel folds the marked lanes itself: per lane, the
// strictly-greater update over that lane's points, then the largest
// score at the smallest point among equal ones (block.go). The blocks
// ascend and do not overlap, so that is the first maximum in ascending
// point order — the row-major walk of the per-row scans the mask scan
// replaced, with the same points, the same comparison and the same
// tie-breaks — and no score is stored or read back.

// scanScratch is one scratch's mask-scan state: the point mask, the
// block list cover (or tileBlocks) builds from it (starts, with the
// marked lanes of each block in used), and a coarse tile's scores and
// positive-lane bytes (coarseTopKQ). grow sizes them for an engine on
// first use. blocks and lanes count the blocks scored and the lanes
// read since the last flush.
type scanScratch struct {
	mask   []uint64
	starts []int32
	used   []uint8
	scores []float64
	pos    []uint8

	blocks, lanes int
}

// grow sizes the buffers for en: a mask bit per dense point, room for a
// full dense cover, and a coarse tile's scores and positive-lane bytes.
// Buffers only grow, so a warm scratch allocates nothing.
//
//talon:noalloc
func (s *scanScratch) grow(en *engine) {
	nPts := len(en.az) * len(en.el)
	if w := (nPts + 63) / 64; len(s.mask) < w {
		//lint:allow noalloc -- first use of a scratch only; a warm scratch keeps its buffers
		s.mask = make([]uint64, w)
	}
	if nb := (nPts + blockLanes - 1) / blockLanes; len(s.starts) < nb {
		//lint:allow noalloc -- first use of a scratch only; a warm scratch keeps its buffers
		s.starts, s.used = make([]int32, nb), make([]uint8, nb)
	}
	if en.hier() {
		if nb := (min(en.tilePts, len(en.cAzIdx)*len(en.cElIdx)) + blockLanes - 1) / blockLanes; len(s.pos) < nb {
			//lint:allow noalloc -- first use of a scratch only; a warm scratch keeps its buffers
			s.scores, s.pos = make([]float64, nb*blockLanes), make([]uint8, nb)
		}
	}
}

// mark sets the mask bits of the points lo…hi (inclusive), a word at a
// time.
//
//talon:noalloc
func (s *scanScratch) mark(lo, hi int) {
	for lo <= hi {
		w := lo >> 6
		top := min(hi, w<<6|63)
		s.mask[w] |= ^uint64(0) >> (63 - (top - lo)) << (lo & 63)
		lo = top + 1
	}
}

// markRect marks the dense points of rows eLo…eHi, columns aLo…aHi.
//
//talon:noalloc
func (s *scanScratch) markRect(numAz, aLo, aHi, eLo, eHi int) {
	for ei := eLo; ei <= eHi; ei++ {
		s.mark(ei*numAz+aLo, ei*numAz+aHi)
	}
}

// tileBlocks leaves the block list of the coarse tile [lo, hi) in s:
// consecutive blocks from lo, the last one's lanes past hi unread.
//
//talon:noalloc
func (s *scanScratch) tileBlocks(lo, hi int) {
	for b, pt := 0, lo; pt < hi; b, pt = b+1, pt+blockLanes {
		s.starts[b] = int32(pt)
		s.used[b] = uint8(1<<min(blockLanes, hi-pt) - 1)
	}
}

// cover turns the marked points into the block list — starts[:nb] with
// their marked lanes in used — and clears the mask.
//
//talon:noalloc
func (s *scanScratch) cover() (nb int) {
	mask, starts, used := s.mask, s.starts, s.used
	lanes := 0
	for pt := 0; pt>>6 < len(mask); {
		w := pt >> 6
		x := mask[w] >> (pt & 63)
		if x == 0 {
			pt = (w + 1) << 6
			continue
		}
		pt += bits.TrailingZeros64(x)
		u := mask[w] >> (pt & 63)
		if off := pt & 63; off > 64-blockLanes && w+1 < len(mask) {
			u |= mask[w+1] << (64 - off)
		}
		starts[nb], used[nb] = int32(pt), uint8(u)
		lanes += bits.OnesCount8(uint8(u))
		nb++
		pt += blockLanes
	}
	clear(mask)
	s.blocks += nb
	s.lanes += lanes
	return nb
}

// scanMask scores the marked dense points against qv, clears the mask
// and returns the argmax cell: the first maximum in ascending point
// order, so ties keep the earlier row-major cell. With no point marked
// it returns score −1 at cell (0, 0).
//
//talon:noalloc
func (en *engine) scanMask(s *scanScratch, qv *quantVec, snrOnly bool) cellScore {
	nb := s.cover()
	pt, w := argmaxBlocks(en.dictQ, en.rowQ, s.starts[:nb], s.used[:nb], qv, snrOnly)
	numAz := len(en.az)
	return cellScore{pt % numAz, pt / numAz, w}
}

// flush folds the work-unit counts into the process-wide counters and
// resets them: once per sub-chunk, so the scans themselves touch no
// atomic.
//
//talon:noalloc
func (s *scanScratch) flush() {
	metQuantBlocks.Add(int64(s.blocks))
	metQuantLanes.Add(int64(s.lanes))
	s.blocks, s.lanes = 0, 0
}
