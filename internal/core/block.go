package core

import "math/bits"

// Eight-point block kernel of the quantized correlation.
//
// Both int16 dictionaries are laid out sector-major (buildQuant): the
// codes of one dictionary column over every grid point are contiguous,
// column c at point pt sits at [c·row + pt], and each row carries
// blockLanes padding codes past its last point. Eight consecutive
// points of one column are then one 16-byte load, so a block scores
// the grid eight points per pass: every correlated component adds its
// column's eight codes into four int32 moments per lane (Σx, Σx²,
// Σps·x, Σpr·x), and a float64 finish turns the lanes into eight Eq. 5
// scores. The padding lets a block that starts at a row's last point
// load its eight lanes without leaving the row; callers ignore the
// lanes past their span. Component selection mirrors the float
// correlation (absent columns skipped, at most quantMaxComponents, fewer
// than three components score 0), and the w = cov²/(varP·varX) form is
// dimensionless, so quantized scores live on the float scores' [0, 1]
// scale and the fallbackCorr threshold applies unchanged.
//
// Exactness. Every moment is an int32 sum bounded by
// quantMaxComponents·quantOne² < 2³¹ (quant.go), the same exact values
// jointQ — the point-at-a-time routine the block replaced, kept in
// block_test.go as its oracle — accumulates. The finish forms
// n·Σx² − (Σx)² and n·Σpx − Σp·Σx from float64 conversions of those
// integers: each product is an integer below 2³⁷ and each difference
// one below 2⁵³, so float64
// computes them exactly and they equal float64 of jointQ's int64
// results (a fused multiply-add, where the compiler emits one, rounds
// nothing either). The finish then applies jointQ's IEEE multiplies and
// divide in jointQ's order, so every lane is bit-identical to jointQ at
// its point. jointQ's early returns become lane guards: max(cov, 0)
// yields jointQ's +0 for a negative covariance, a lane whose varX is 0
// is masked to +0 after the divide, and the per-item degenerate test
// (n < 3, snrVarP = 0, or rssiVarP = 0 unless snrOnly; quantize) zeroes
// every block before any moment is taken. A lane whose SNR factor is 0
// multiplies that +0 by a finite RSSI factor, which is jointQ's +0
// again.
//
// Dispatch. On amd64 with AVX2 and OS-enabled YMM state the block runs
// in assembly (block_amd64.s); useAVX2 records that check, made once at
// init. Everywhere else — and when useAVX2 is false — scoreBlockGeneric
// runs the same block in Go, with jointQ's early returns in place of
// the lane guards. Every search hands the kernel its whole block list
// at once (scan.go), so the Go around the kernel runs once per pass,
// not once per block.
//
// Fused folds. A pass wants a decision, not the scores, so the kernel
// does what it can of the fold. argmaxBlocks (the mask scans) keeps,
// per lane k of four, the best score and its point among the points it
// sees — lanes k and k+4 of every block — under the strictly-greater
// rule, with unused lanes masked out, and returns the largest of the
// four scores at the smallest point among equal ones. Blocks ascend and
// do not overlap (cover, scan.go), so each lane sees its points in
// ascending order and keeps the first one reaching its maximum; the
// smallest of those among the lanes holding the overall maximum is the
// first point in ascending order reaching it, which is exactly what the
// sequential strictly-greater fold returns. scoreBlocks (the coarse
// tiles) keeps the scores and also writes, per block, the byte of its
// used lanes whose score is positive: the only lanes the coarse top-K
// can insert, so its fold walks those bits alone (coarseTopKQ,
// quant.go) instead of testing every lane in Go.

// blockLanes is the number of consecutive grid points one block scores,
// and the padding codes past each dictionary row's last point.
const blockLanes = 8

// blockConsts are the per-item float64 constants of the block finish:
// n, Σps, Σpr and the two probe variances n·Σp² − (Σp)².
type blockConsts struct {
	n, snrSp, rssiSp, snrVarP, rssiVarP float64
}

// scoreBlocks scores one block per entry of starts — the blockLanes
// grid points start … start+7 of the sector-major dictionary d (row
// codes per column) against qv — into out[b·blockLanes …], each lane
// bit-identical to jointQ at its point, and writes pos[b]: the lanes of
// used[b] (bit j for lane j) whose score is positive. d must hold every
// column of qv.colsC, and every start+blockLanes must stay inside the
// row; lanes past the dictionary's point count score padding and are
// meaningless. used (parallel to starts) marks the lanes the caller
// reads: the generic block skips the moments and finish of a half no
// lane of which is used, while the AVX2 kernel, for which eight lanes
// cost one pass, scores them all. Lanes not marked in used are then
// unspecified. The AVX2 kernel scores the whole list in one call and
// broadcasts the per-item constants once.
//
//talon:noalloc
func scoreBlocks(d []int16, row int, starts []int32, used []uint8, qv *quantVec, snrOnly bool, out []float64, pos []uint8) {
	nb := len(starts)
	out = out[:nb*blockLanes]
	used, pos = used[:nb], pos[:nb]
	if nb == 0 {
		return
	}
	if qv.degenerate || (qv.rssiVarP == 0 && !snrOnly) {
		clear(out)
		clear(pos)
		return
	}
	checkBlockList(d, row, starts, qv)
	if useAVX2 {
		scoreBlocksAVX2(&d[0], &starts[0], nb, &qv.offsets(row)[0], &qv.pairS[0], &qv.pairR[0], len(qv.colsC), &qv.k, snrOnly, &used[0], &out[0], &pos[0])
		return
	}
	for b, st := range starts {
		blk := (*[blockLanes]float64)(out[b*blockLanes:])
		scoreBlockGeneric(d, row, int(st), used[b], qv, snrOnly, blk)
		var p uint8
		for u := used[b]; u != 0; u &= u - 1 {
			if j := bits.TrailingZeros8(u); blk[j] > 0 {
				p |= 1 << j
			}
		}
		pos[b] = p
	}
}

// laneBest is the AVX2 argmax's running state: lane k's best score and
// its point among lanes k and k+4 of the blocks folded so far.
type laneBest struct {
	w  [4]float64
	pt [4]int64
}

// argmaxBlocks scores the used lanes of the block list (as scoreBlocks)
// and returns the largest score with its point, the smallest point
// among equal scores: for ascending, non-overlapping blocks, the point
// and score bits of the sequential strictly-greater fold from score −1.
// With no used lane it returns point 0 and score −1.
//
//talon:noalloc
func argmaxBlocks(d []int16, row int, starts []int32, used []uint8, qv *quantVec, snrOnly bool) (pt int, w float64) {
	nb := len(starts)
	used = used[:nb]
	if nb == 0 {
		return 0, -1
	}
	if qv.degenerate || (qv.rssiVarP == 0 && !snrOnly) {
		for b, u := range used {
			if u != 0 {
				return int(starts[b]) + bits.TrailingZeros8(u), 0
			}
		}
		return 0, -1
	}
	checkBlockList(d, row, starts, qv)
	if useAVX2 {
		lb := laneBest{w: [4]float64{-1, -1, -1, -1}}
		argmaxBlocksAVX2(&d[0], &starts[0], nb, &qv.offsets(row)[0], &qv.pairS[0], &qv.pairR[0], len(qv.colsC), &qv.k, snrOnly, &used[0], &lb)
		pt, w = int(lb.pt[0]), lb.w[0]
		for k := 1; k < len(lb.w); k++ {
			if lb.w[k] > w || lb.w[k] == w && int(lb.pt[k]) < pt {
				pt, w = int(lb.pt[k]), lb.w[k]
			}
		}
		return pt, w
	}
	pt, w = 0, -1
	var blk [blockLanes]float64
	for b, st := range starts {
		scoreBlockGeneric(d, row, int(st), used[b], qv, snrOnly, &blk)
		for u := used[b]; u != 0; u &= u - 1 {
			j := bits.TrailingZeros8(u)
			if blk[j] > w {
				pt, w = int(st)+j, blk[j]
			}
		}
	}
	return pt, w
}

// checkBlockList bounds-checks a whole block list once: every lane of
// every correlated column of every block lies inside d.
//
//talon:noalloc
func checkBlockList(d []int16, row int, starts []int32, qv *quantVec) {
	if int(qv.colHi)*row > len(d) {
		panic("core: scoreBlocks outside the dictionary")
	}
	for _, st := range starts {
		if st < 0 || int(st)+blockLanes > row {
			panic("core: scoreBlocks outside the dictionary")
		}
	}
}

// scoreBlockGeneric is the portable block: the assembly kernel's
// moments and finish in Go, four lanes at a time so each half's
// accumulators stay in registers. A half none of whose lanes is set in
// used is skipped. Each lane keeps its moments as two
// SWAR pairs of int32 sums in one int64 — m packs Σx² (low) with Σx
// (high), c packs Σps·x (low) with Σpr·x (high) — so one multiply-add
// per pair serves two moments. Every partial sum is bounded by
// quantMaxComponents·quantOne² < 2³¹, so a low half never carries into
// its high half and both stay exact.
//
//talon:noalloc
func scoreBlockGeneric(d []int16, row, pt int, used uint8, qv *quantVec, snrOnly bool, out *[blockLanes]float64) {
	ps, pr := qv.ps[:len(qv.colsC)], qv.pr[:len(qv.colsC)]
	k := &qv.k
	for h := 0; h < blockLanes; h += 4 {
		if used>>h&0xf == 0 {
			continue
		}
		var m0, m1, m2, m3, c0, c1, c2, c3 int64
		for i, c := range qv.colsC {
			xs := (*[4]int16)(d[int(c)*row+pt+h:])
			pk := int64(ps[i]) | int64(pr[i])<<32
			x0, x1, x2, x3 := int64(xs[0]), int64(xs[1]), int64(xs[2]), int64(xs[3])
			m0 += x0 * (x0 | 1<<32)
			m1 += x1 * (x1 | 1<<32)
			m2 += x2 * (x2 | 1<<32)
			m3 += x3 * (x3 | 1<<32)
			c0 += x0 * pk
			c1 += x1 * pk
			c2 += x2 * pk
			c3 += x3 * pk
		}
		out[h] = finishLane(k, m0, c0, snrOnly)
		out[h+1] = finishLane(k, m1, c1, snrOnly)
		out[h+2] = finishLane(k, m2, c2, snrOnly)
		out[h+3] = finishLane(k, m3, c3, snrOnly)
	}
}

// finishLane is the float64 finish of one lane from its packed
// moments, with jointQ's early returns in place of the assembly's lane
// guards (both yield +0).
//
//talon:noalloc
func finishLane(k *blockConsts, mom, cross int64, snrOnly bool) float64 {
	fx := float64(int32(mom >> 32))
	varX := k.n*float64(int32(uint32(mom))) - fx*fx
	if varX == 0 {
		return 0
	}
	cov := k.n*float64(int32(uint32(cross))) - k.snrSp*fx
	if cov < 0 {
		return 0
	}
	v := cov * cov / (k.snrVarP * varX)
	if v == 0 || snrOnly {
		return v
	}
	cov = k.n*float64(int32(cross>>32)) - k.rssiSp*fx
	if cov < 0 {
		return 0
	}
	return v * (cov * cov / (k.rssiVarP * varX))
}
