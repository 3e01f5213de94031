package core

// Eight-point block kernel of the quantized correlation.
//
// Both int16 dictionaries are laid out sector-major (buildQuant): the
// codes of one dictionary column over every grid point are contiguous,
// column c at point pt sits at [c·row + pt], and each row carries
// blockLanes padding codes past its last point. Eight consecutive
// points of one column are then one 16-byte load, so scoreBlock scores
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
// is masked to +0 after the divide, and the per-item constants (n < 3,
// snrVarP = 0, and rssiVarP = 0 unless snrOnly) zero the whole block
// before any moment is taken. A lane whose SNR factor is 0 multiplies
// that +0 by a finite RSSI factor, which is jointQ's +0 again.
//
// Dispatch. On amd64 with AVX2 and OS-enabled YMM state the block runs
// in assembly (block_amd64.s); useAVX2 records that check, made once at
// init. Everywhere else — and when useAVX2 is false — scoreBlockGeneric
// runs the same block in Go, with jointQ's early returns in place of
// the lane guards.

// blockLanes is the number of consecutive grid points one block scores,
// and the padding codes past each dictionary row's last point.
const blockLanes = 8

// blockConsts are the per-item float64 constants of the block finish:
// n, Σps, Σpr and the two probe variances n·Σp² − (Σp)².
type blockConsts struct {
	n, snrSp, rssiSp, snrVarP, rssiVarP float64
}

// scoreBlock scores the blockLanes grid points pt … pt+7 of the
// sector-major dictionary d (row codes per column) against qv into out,
// each lane bit-identical to jointQ at its point. d must hold every
// column of qv.colsC, and pt+blockLanes must not pass the row; lanes
// past the dictionary's point count score padding and are meaningless.
// lanes (1…blockLanes) is how many leading lanes the caller reads: the
// generic block skips the moments and finish of a half past them, while
// the AVX2 kernel, for which eight lanes cost one pass, ignores it.
// Lanes at or past lanes are then unspecified.
//
//talon:noalloc
func scoreBlock(d []int16, row, pt, lanes int, qv *quantVec, snrOnly bool, out *[blockLanes]float64) {
	if qv.n < 3 || qv.snrVarP == 0 || (qv.rssiVarP == 0 && !snrOnly) {
		*out = [blockLanes]float64{}
		return
	}
	// One bounds check for the whole block: every lane of every
	// correlated column lies inside d.
	if pt < 0 || pt+blockLanes > row || int(qv.colHi)*row > len(d) {
		panic("core: scoreBlock outside the dictionary")
	}
	k := blockConsts{
		n:        float64(qv.n),
		snrSp:    float64(qv.snrSp),
		rssiSp:   float64(qv.rssiSp),
		snrVarP:  float64(qv.snrVarP),
		rssiVarP: float64(qv.rssiVarP),
	}
	if useAVX2 {
		scoreBlockAVX2(&d[pt], row, &qv.colsC[0], &qv.ps[0], &qv.pr[0], len(qv.colsC), &k, snrOnly, out)
		return
	}
	scoreBlockGeneric(d, row, pt, lanes, qv, &k, snrOnly, out)
}

// scoreBlockGeneric is the portable block: the assembly kernel's
// moments and finish in Go, four lanes at a time so each half's
// accumulators stay in registers. A half wholly past the caller's lane
// count is skipped. Each lane keeps its moments as two
// SWAR pairs of int32 sums in one int64 — m packs Σx² (low) with Σx
// (high), c packs Σps·x (low) with Σpr·x (high) — so one multiply-add
// per pair serves two moments. Every partial sum is bounded by
// quantMaxComponents·quantOne² < 2³¹, so a low half never carries into
// its high half and both stay exact.
//
//talon:noalloc
func scoreBlockGeneric(d []int16, row, pt, lanes int, qv *quantVec, k *blockConsts, snrOnly bool, out *[blockLanes]float64) {
	ps, pr := qv.ps[:len(qv.colsC)], qv.pr[:len(qv.colsC)]
	for h := 0; h < lanes; h += 4 {
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
