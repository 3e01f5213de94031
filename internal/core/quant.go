package core

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"talon/internal/radio"
)

// Quantized int16 correlation kernel.
//
// The firmware only ever reports quarter-dB SNR clamped to the −7…12 dB
// window (radio.SNRMinDB/SNRMaxDB), so the float64 dictionary carries
// far more precision than any measurement it is correlated against.
// This file quantizes both sides of the Eq. 2 correlation to int16
// fixed-point and replaces the two-pass centered dot product with a
// single pass of int32 moment accumulation:
//
//   - Probe readings are encoded on a sub-quarter-dB lattice
//     (quantizeProbe: probeStepDB = SNRQuantumDB/4 steps across the
//     hardware window, so every value the hardware can report round-trips
//     exactly) and mapped to linear-amplitude codes through a
//     precomputed table — the per-probe math.Pow of the serial path
//     disappears entirely.
//   - Dictionary amplitudes are scaled to [0, quantOne] codes once at
//     newEngine time. The dictionary has no holes: NewEstimator rejects
//     a pattern set with a non-finite amplitude at any grid point
//     (ErrPatternHole), so every grid point correlates the same
//     component set and the probe-side moments are per-estimate
//     constants.
//   - The Pearson correlation is computed from raw integer moments
//     (n, Σp, Σx, Σpx, Σp², Σx²) accumulated in int32. quantOne is 4095
//     (12 bits) precisely so the moments cannot overflow: with at most
//     quantMaxComponents = 64 components, Σpx ≤ 64·4095² = 1 073 217 600
//     < 2³¹−1 (at the paper's M = 14 operating point the bound is
//     14·4095² ≈ 2.3·10⁸, an order of magnitude of headroom). The final
//     cov²/(varP·varX) combination runs in int64/float64 — the int64
//     cross terms n·Σpx − Σp·Σx are exact.
//
// Pearson correlation is invariant under positive affine maps of either
// vector, so the per-vector dB offset (windowOffset) and the global
// dictionary scale change nothing but rounding noise. The search — the
// O(grid·M) part — runs entirely on int16 codes; the final estimate is
// then produced by a float epilogue (quantEpilogue) that re-evaluates
// the winning cell and its refinement neighbourhood on the float64
// dictionary, so rounding noise can only move the argmax cell, never the
// reported values at a given cell. The equivalence suite
// (quant_equiv_test.go) gates the residual argmax noise to ≤1% sector
// divergence and one coarse-cell diagonal of AoA drift against the
// float64 serial reference (estimateAoASerial / selectSectorSerial).
//
// The float64 dictionary stays resident for the float epilogue alone;
// every search, multipath and backup included, runs on the int16 codes,
// eight grid points per block and one kernel call per pass, which also
// does what it can of the pass's fold: the argmax itself, or each
// coarse block's positive lanes (argmaxBlocks and scoreBlocks,
// block.go; scanMask, scan.go).

// Fixed-point geometry.
const (
	// quantBits is the amplitude code width. 12 bits is the largest width
	// whose raw second moments fit int32 at 64 components (see the
	// overflow argument in the file comment).
	quantBits = 12
	// quantOne is the full-scale amplitude code.
	quantOne = 1<<quantBits - 1
	// quantMaxComponents caps the correlation components per grid point,
	// mirroring the float correlation's fixed 64-component gather capacity.
	quantMaxComponents = 64

	// probeStepDB subdivides the firmware's quarter-dB reporting quantum
	// 4×, so hardware reports encode losslessly and off-lattice synthetic
	// inputs round-trip within half a sub-step (1/32 dB, well inside the
	// half quarter-dB bound the property suite enforces).
	probeStepDB = radio.SNRQuantumDB / 4
	// ProbeCodeMax is the largest probe code: the top of the −7…12 dB
	// hardware window on the probeStepDB lattice.
	ProbeCodeMax = int16((radio.SNRMaxDB - radio.SNRMinDB) / probeStepDB)
)

// ampCodes maps a probe code to its linear-amplitude fixed-point code:
// round(quantOne · 10^((dB(code) − SNRMaxDB)/20)), so the top of the
// window is full scale and the bottom (19 dB down) is ≈ quantOne/9.
// Precomputed once; the hot path pays one table load per probe instead
// of a math.Pow.
var ampCodes = func() [ProbeCodeMax + 1]int16 {
	var t [ProbeCodeMax + 1]int16
	for c := range t {
		db := radio.SNRMinDB + float64(c)*probeStepDB
		t[c] = int16(math.Round(quantOne * math.Pow(10, (db-radio.SNRMaxDB)/20)))
	}
	return t
}()

// quantizeProbe encodes a dB reading as a fixed-point code on the
// probeStepDB lattice spanning the firmware's −7…12 dB reporting window,
// saturating at the clamp bounds (exactly like the hardware does). NaN
// encodes as the floor. The codec is monotone: db1 <= db2 implies
// quantizeProbe(db1) <= quantizeProbe(db2).
//
//talon:noalloc
func quantizeProbe(db float64) int16 {
	c := math.Round((db - radio.SNRMinDB) / probeStepDB)
	if !(c >= 0) { // NaN too
		return 0
	}
	return int16(min(c, float64(ProbeCodeMax)))
}

// windowOffset returns the dB shift that moves a measurement vector
// whose largest in-dictionary reading is maxDB to the top of the
// quantization window: the maximum lands at SNRMaxDB. Pearson
// correlation is invariant under the shift (a dB offset is a linear
// scale), and the shift is what keeps RSSI vectors (≈ −70 dBm) and
// imputed floor values inside the window. The offset is rounded up to
// the code lattice so lattice-aligned inputs (everything real firmware
// reports) stay lattice-aligned and encode losslessly. Components more
// than 19 dB below the vector maximum saturate at the window floor;
// their linear amplitude is ≤ 1.2% of the maximum, which is also where
// the float64 reference's own sensitivity ends.
//
// The maximum runs over the components whose sector is in the
// dictionary (cols[i] >= 0) alone: the correlation skips the others at
// every grid point, but a rogue reading among them (e.g. a probe for an
// unknown sector) would otherwise shift the window and saturate every
// real component to the floor. gatherQuant takes that maximum in its
// first pass over the probes; inDictMax takes it from a vector.
//
//talon:noalloc
func windowOffset(maxDB float64) float64 {
	return math.Ceil((maxDB-radio.SNRMaxDB)/probeStepDB) * probeStepDB
}

// inDictMax is the largest reading of db over the components whose
// sector is in the dictionary, −Inf when there is none; NaN readings
// never count. Max is order-independent, so it is the value gatherQuant
// accumulates probe by probe.
//
//talon:noalloc
func inDictMax(db []float64, cols []int16) float64 {
	maxDB := math.Inf(-1)
	for i, v := range db {
		if cols[i] >= 0 && v > maxDB {
			maxDB = v
		}
	}
	return maxDB
}

// buildQuant quantizes the dense dictionary to int16 codes and copies
// the coarse dictionary out of it. Called from newEngine after
// buildCoarse. The global scale maps the loudest finite dictionary
// amplitude to full scale — Pearson invariance makes the choice free —
// and the coarse codes are copied from the dense ones, so a grid point
// shared by both quantized dictionaries scores bit-identically.
// newEngine has already rejected non-finite amplitudes
// (ErrPatternHole); a dictionary with no positive amplitude at all
// quantizes at unit scale, where every grid point then scores 0 and
// estimates fail with ErrDegenerateSurface like the serial reference.
//
// Both code dictionaries are sector-major, the layout of the block
// kernel (block.go): column c at point pt sits at [c·row + pt], where
// row is the point count plus blockLanes padding codes.
func (en *engine) buildQuant() {
	maxAmp := 0.0
	for _, v := range en.dict {
		if v > maxAmp {
			maxAmp = v
		}
	}
	scale := 1.0
	if maxAmp > 0 {
		scale = quantOne / maxAmp
	}
	nPts := len(en.az) * len(en.el)
	en.rowQ = nPts + blockLanes
	en.dictQ = make([]int16, en.stride*en.rowQ)
	for pt := 0; pt < nPts; pt++ {
		for c, v := range en.dict[pt*en.stride : (pt+1)*en.stride] {
			code := math.Round(v * scale)
			if code > quantOne {
				code = quantOne
			}
			en.dictQ[c*en.rowQ+pt] = int16(code)
		}
	}
	if en.hier() {
		numAz := len(en.az)
		en.rowC = len(en.cAzIdx)*len(en.cElIdx) + blockLanes
		en.coarseQ = make([]int16, en.stride*en.rowC)
		cp := 0
		for _, ei := range en.cElIdx {
			for _, ai := range en.cAzIdx {
				src := int(ei)*numAz + int(ai)
				for c := 0; c < en.stride; c++ {
					en.coarseQ[c*en.rowC+cp] = en.dictQ[c*en.rowQ+src]
				}
				cp++
			}
		}
	}
	en.tilePts = tilePoints(en.stride)
	metQuantDictBytes.Set(int64(2 * (len(en.dictQ) + len(en.coarseQ))))
	metQuantTilePoints.Set(int64(en.tilePts))
}

// quantVec is the quantized view of one gathered measurement: the
// components whose sector is in the dictionary (cols >= 0), truncated at
// quantMaxComponents, with the grid-point-invariant probe moments hoisted
// out of the sweep. The dictionary has no holes, so the component set is
// identical at every grid point and n, Σp and n·Σp² − (Σp)² are
// per-estimate constants; quantize also converts them once into the
// block finish's float64 constants (k) and records whether every point
// scores 0 whatever snrOnly (degenerate: n < 3 or snrVarP = 0; a zero
// rssiVarP zeroes the joint score only, see scoreBlocks).
//
// The AVX2 kernel reads the components two at a time (block.go): pairS
// and pairR pack the probe codes of components 2j and 2j+1 into one
// word as an int16 pair (p₂ⱼ low, p₂ⱼ₊₁ high; an odd count's last word
// is (p, 0)), and offQ and offC hold each component's column as a byte
// offset at the dense (rowQ) and the coarse (rowC) pitch, so the moment
// loop multiplies nothing to find a column.
type quantVec struct {
	cols              []int16 // dictionary column per gathered component; < 0 = absent sector
	colsC             []int32 // dictionary column per correlated component
	ps, pr            []int32 // SNR and RSSI amplitude codes, parallel to colsC
	pairS, pairR      []int32 // ps and pr as int16 pairs, one word per two components
	offQ, offC        []int32 // colsC as byte offsets at pitch rowQ and rowC
	rowQ, rowC        int
	colHi             int32 // one past the largest entry of colsC
	n                 int32
	snrSp, rssiSp     int32
	snrVarP, rssiVarP int64
	k                 blockConsts
	degenerate        bool
}

// offsets returns the byte offsets of qv's columns in a dictionary of
// row codes per column: the pitch must be one quantize packed.
//
//talon:noalloc
func (qv *quantVec) offsets(row int) []int32 {
	switch row {
	case qv.rowQ:
		return qv.offQ
	case qv.rowC:
		return qv.offC
	}
	panic("core: quantVec not packed for this dictionary pitch")
}

// cellScore is a dense grid cell and its quantized score: the running
// argmax of a scan.
type cellScore struct {
	a, e int
	w    float64
}

// coarseTopKQ scores the coarse points [lo, hi) — one tile, whose block
// list quantChunk has left in s — for one item's probe vector in one
// kernel call and folds the positive scores into the item's descending
// top-K (it.cells/it.scores, it.kept entries). The insertion keeps the
// top-K sorted by descending score — ties keep the earlier row-major
// cell — and because quantChunk sweeps tiles, and each tile's scores,
// in ascending point order the final top-K matches a straight row-major
// scan, whatever the tile geometry. The kernel marks each block's
// positive lanes (scoreBlocks), and the fold walks those bits in
// ascending point order: the lanes a test of every score would not
// skip, in the same order.
//
//talon:noalloc
func (en *engine) coarseTopKQ(s *scanScratch, lo, hi int, it *quantItem, snrOnly bool) {
	nb := (hi - lo + blockLanes - 1) / blockLanes
	scores, pos := s.scores[:nb*blockLanes], s.pos[:nb]
	scoreBlocks(en.coarseQ, en.rowC, s.starts[:nb], s.used[:nb], &it.qv, snrOnly, scores, pos)
	s.blocks += nb
	s.lanes += hi - lo
	kept := it.kept
	for b, u := range pos {
		for ; u != 0; u &= u - 1 {
			j := b*blockLanes + bits.TrailingZeros8(u)
			v := scores[j]
			if kept == topK && v <= it.scores[kept-1] {
				continue
			}
			if kept < topK {
				kept++
			}
			at := kept - 1
			for at > 0 && v > it.scores[at-1] {
				it.scores[at], it.cells[at] = it.scores[at-1], it.cells[at-1]
				at--
			}
			it.scores[at], it.cells[at] = v, int32(lo+j)
		}
	}
	it.kept = kept
}

// refineQ rescans the dense windows around the item's kept coarse
// candidates, and around its hint cell when the hint is inside the grid
// (hier.go), on the quantized dictionary: the windows are marked in the
// scan mask, so overlapping windows score each point once, and the
// mask scan folds them strictly row-major: ties break in the same order
// as the exhaustive scan (denseArgmaxQ). A hinted item whose winner lies
// outside every top-K window is hint-decided and counted.
//
//talon:noalloc
func (en *engine) refineQ(ctx context.Context, s *scanScratch, it *quantItem, hint Cell, snrOnly bool) (bestA, bestE int, bestW float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	numAz := len(en.az)
	for k := 0; k < it.kept; k++ {
		ai, ei := en.candidate(it, k)
		en.markWindow(s, ai, ei)
	}
	ha, he, hinted := hint.split()
	hinted = hinted && ha < numAz && he < len(en.el)
	if hinted {
		en.markWindow(s, ha, he)
	}
	best := en.scanMask(s, &it.qv, snrOnly)
	if hinted && !en.inTopKWindow(it, best.a, best.e) {
		metWarmHits.Inc()
	}
	return best.a, best.e, best.w, nil
}

// candidate returns the dense grid indices of the item's k-th kept
// coarse cell.
//
//talon:noalloc
func (en *engine) candidate(it *quantItem, k int) (ai, ei int) {
	cell, nCAz := int(it.cells[k]), len(en.cAzIdx)
	return int(en.cAzIdx[cell%nCAz]), int(en.cElIdx[cell/nCAz])
}

// markWindow marks the refineRadius window around dense cell (ai, ei),
// clamped to the grid.
//
//talon:noalloc
func (en *engine) markWindow(s *scanScratch, ai, ei int) {
	numAz, numEl := len(en.az), len(en.el)
	s.markRect(numAz, int(clampIdx(ai-refineRadius, numAz)), int(clampIdx(ai+refineRadius, numAz)),
		int(clampIdx(ei-refineRadius, numEl)), int(clampIdx(ei+refineRadius, numEl)))
}

// inTopKWindow reports whether dense cell (a, e) lies in the refinement
// window of one of the item's kept coarse candidates.
//
//talon:noalloc
func (en *engine) inTopKWindow(it *quantItem, a, e int) bool {
	for k := 0; k < it.kept; k++ {
		ai, ei := en.candidate(it, k)
		if max(a-ai, ai-a) <= refineRadius && max(e-ei, ei-e) <= refineRadius {
			return true
		}
	}
	return false
}

// denseArgmaxQ is the exhaustive quantized scan: every dense grid point
// in row-major order with the strictly-greater update, so tie-breaks
// match the serial reference's scan. No surface is materialized —
// refinement re-evaluates the handful of neighbours it needs. It passes
// over the row-major cells set in a non-nil skip bitset (multipath.go).
//
//talon:noalloc
func (en *engine) denseArgmaxQ(ctx context.Context, s *scanScratch, qv *quantVec, skip []uint64, snrOnly bool) (bestA, bestE int, bestW float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	s.mark(0, len(en.az)*len(en.el)-1)
	if skip != nil {
		for w := range s.mask {
			s.mask[w] &^= skip[w]
		}
	}
	best := en.scanMask(s, qv, snrOnly)
	return best.a, best.e, best.w, nil
}

// gatherQuant is gatherVectors into the item's scratch: identical probe
// selection, imputation and ordering, but keeping the readings in the dB
// domain — amplitudes come from the ampCodes table at quantization time,
// so the per-probe math.Pow of the serial gather disappears — and mapping
// each component straight to its dense dictionary column (-1 for sectors
// absent from the set, mirroring the serial path's nil-pattern skip).
// The first pass over the probes also takes each vector's maximum over
// the in-dictionary components, the minus-one imputation of an
// unreported one included, and turns it into the vector's windowOffset
// (offS, offR): the maximum inDictMax would take of the gathered
// vector. The steady-state estimate path allocates nothing.
//
//talon:noalloc
func (e *Estimator) gatherQuant(it *quantItem, probes []Probe) {
	cols := &e.en.cols
	reported, inDict := 0, 0
	minSNR, minRSSI := math.Inf(1), math.Inf(1)
	maxSNR, maxRSSI := math.Inf(-1), math.Inf(-1)
	imputedIn := false
	for _, p := range probes {
		in := cols[p.Sector] >= 0
		if in {
			inDict++
		}
		if !p.OK {
			imputedIn = imputedIn || in
			continue
		}
		reported++
		if p.Meas.SNR < minSNR {
			minSNR = p.Meas.SNR
		}
		if p.Meas.RSSI < minRSSI {
			minRSSI = p.Meas.RSSI
		}
		if in {
			if p.Meas.SNR > maxSNR {
				maxSNR = p.Meas.SNR
			}
			if p.Meas.RSSI > maxRSSI {
				maxRSSI = p.Meas.RSSI
			}
		}
	}
	// Every probe is gathered once one is reported (the unreported ones
	// imputed), and none otherwise.
	m := 0
	if reported > 0 {
		m = len(probes)
		if imputedIn {
			if minSNR-1 > maxSNR {
				maxSNR = minSNR - 1
			}
			if minRSSI-1 > maxRSSI {
				maxRSSI = minRSSI - 1
			}
		}
	} else {
		inDict = 0
	}
	it.reported, it.inDict = reported, inDict
	it.offS, it.offR = windowOffset(maxSNR), windowOffset(maxRSSI)
	it.qv.cols, it.snrDB, it.rssiDB = sized(it.qv.cols, m), sized(it.snrDB, m), sized(it.rssiDB, m)
	qc, snr, rssi := it.qv.cols[:m], it.snrDB[:m], it.rssiDB[:m]
	for i, p := range probes[:m] {
		qc[i] = cols[p.Sector]
		if p.OK {
			snr[i], rssi[i] = p.Meas.SNR, p.Meas.RSSI
		} else {
			snr[i], rssi[i] = minSNR-1, minRSSI-1
		}
	}
}

// sized returns s resliced to n entries, grown by append's policy when
// its capacity is short: a warm scratch keeps its buffers.
//
//talon:noalloc
func sized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// quantize encodes the gathered dB vectors into the item's quantVec —
// each vector shifted by its windowOffset (offS, offR) and mapped to
// amplitude codes, the components of absent sectors dropped, the probe
// moments hoisted and the codes packed for the AVX2 kernel at the
// dictionary pitches rowQ and rowC — and prepares the probe side of the
// float epilogue in the same pass over the components: the linear
// amplitudes dS and dR of the correlated components, centered on their
// means, and their centered sums of squares nmS and nmR. The first
// quantMaxComponents present components are the same at every grid
// point, so the truncation matches the float path's component cap, and
// the amplitudes are per-estimate constants. gatherQuant keeps the
// exact dB values gatherVectors would convert (including the minus-one
// imputation) and each float sum runs in the serial reference's order,
// so every amplitude is bit-identical to the one Estimator.correlate
// derives at each point.
//
//talon:noalloc
func (it *quantItem) quantize(rowQ, rowC int) {
	qv := &it.qv
	offS, offR := it.offS, it.offR
	n := min(it.inDict, quantMaxComponents)
	np := (n + 1) / 2 // pair words
	qv.colsC, qv.ps, qv.pr = sized(qv.colsC, n), sized(qv.ps, n), sized(qv.pr, n)
	qv.offQ, qv.offC = sized(qv.offQ, n), sized(qv.offC, n)
	qv.pairS, qv.pairR = sized(qv.pairS, np), sized(qv.pairR, np)
	it.dS, it.dR = sized(it.dS, n), sized(it.dR, n)
	colsC, psC, prC, offQ, offC := qv.colsC[:n], qv.ps[:n], qv.pr[:n], qv.offQ[:n], qv.offC[:n]
	pairS, pairR, dS, dR := qv.pairS[:np], qv.pairR[:np], it.dS[:n], it.dR[:n]
	qv.rowQ, qv.rowC, qv.colHi = rowQ, rowC, 0
	var spS, sppS, spR, sppR int32
	var sumS, sumR float64
	j := 0
	for i, c := range qv.cols {
		if c < 0 {
			continue
		}
		if j == n {
			break
		}
		ps := int32(ampCodes[quantizeProbe(it.snrDB[i]-offS)])
		pr := int32(ampCodes[quantizeProbe(it.rssiDB[i]-offR)])
		if j%2 == 0 {
			pairS[j/2], pairR[j/2] = ps, pr
		} else {
			pairS[j/2] |= ps << 16
			pairR[j/2] |= pr << 16
		}
		colsC[j], psC[j], prC[j] = int32(c), ps, pr
		offQ[j], offC[j] = 2*int32(c)*int32(rowQ), 2*int32(c)*int32(rowC)
		qv.colHi = max(qv.colHi, int32(c)+1)
		spS += ps
		sppS += ps * ps
		spR += pr
		sppR += pr * pr
		s, r := ampCached(it.snrDB[i]), ampCached(it.rssiDB[i])
		dS[j], dR[j] = s, r
		sumS += s
		sumR += r
		j++
	}
	qv.n, qv.snrSp, qv.rssiSp = int32(n), spS, spR
	qv.snrVarP = int64(n)*int64(sppS) - int64(spS)*int64(spS)
	qv.rssiVarP = int64(n)*int64(sppR) - int64(spR)*int64(spR)
	qv.k = blockConsts{
		n:        float64(n),
		snrSp:    float64(spS),
		rssiSp:   float64(spR),
		snrVarP:  float64(qv.snrVarP),
		rssiVarP: float64(qv.rssiVarP),
	}
	qv.degenerate = n < 3 || qv.snrVarP == 0

	meanS, meanR := sumS/float64(n), sumR/float64(n)
	it.nmS, it.nmR = 0, 0
	for i := range dS {
		dS[i] -= meanS
		dR[i] -= meanR
		it.nmS += dS[i] * dS[i]
		it.nmR += dR[i] * dR[i]
	}
}

// ampTab spans [-120, 40] dB on the quarter-dB lattice — every SNR or
// RSSI value real firmware reports, plus their minus-one imputations.
const (
	ampTabLoDB = -120.0
	ampTabN    = 641 // (40 − (−120)) × 4 + 1 quarter-dB steps
)

// ampTab caches amp() on the lattice. Entries are computed with amp()
// itself, so a table hit is bit-identical to the live call.
var ampTab = func() [ampTabN]float64 {
	var t [ampTabN]float64
	for i := range t {
		t[i] = amp(ampTabLoDB + float64(i)*0.25)
	}
	return t
}()

// ampCached is amp() with the lattice served from ampTab. Quarter-dB
// multiples subtract and scale exactly in binary (0.25 = 2⁻²), so the
// lattice test is an exact float comparison and off-lattice or
// out-of-range values fall through to the live math.Pow.
//
//talon:noalloc
func ampCached(db float64) float64 {
	i := (db - ampTabLoDB) * 4
	if i >= 0 && i <= ampTabN-1 {
		if j := int(i); i == float64(j) {
			return ampTab[j]
		}
	}
	return amp(db)
}

// quantEpilogue turns the quantized search's argmax cell into the final
// estimate using the float64 dictionary: one Eq. 5 evaluation at the
// winning cell plus the parabolic refinement around it, O(M) work against
// the O(grid·M) integer sweep that found the cell. Quantization noise is
// thereby confined to the argmax decision itself — whenever the search
// picks the serial reference's cell (the common case the equivalence
// suite gates), the reported Az/El/Corr are bit-identical to
// estimateAoASerial, and downstream near-tie decisions (Eq. 4 sector choice, the
// fallback threshold) cannot flip on epsilon score differences.
//
//talon:noalloc
func (e *Estimator) quantEpilogue(it *quantItem, bestA, bestE int) AoAEstimate {
	en := e.en
	snrOnly := e.opts.SNROnly
	numAz := len(en.az)
	w := en.jointAt((bestE*numAz+bestA)*en.stride, it, snrOnly)
	// The closures serve the already-computed centre value instead of
	// re-deriving it; jointAt is deterministic, so this is only a
	// recomputation skip.
	//lint:allow noalloc -- closure captures only stack values; escape analysis keeps it off the heap (see TestEstimateZeroAllocSteadyState)
	az := refineAxis(en.az, bestA, func(i int) float64 {
		if i == bestA {
			return w
		}
		return en.jointAt((bestE*numAz+i)*en.stride, it, snrOnly)
	})
	//lint:allow noalloc -- closure captures only stack values; escape analysis keeps it off the heap (see TestEstimateZeroAllocSteadyState)
	el := refineAxis(en.el, bestE, func(i int) float64 {
		if i == bestE {
			return w
		}
		return en.jointAt((i*numAz+bestA)*en.stride, it, snrOnly)
	})
	return AoAEstimate{Az: az, El: el, Corr: w, Used: it.reported, Cell: cellOf(bestA, bestE)}
}
