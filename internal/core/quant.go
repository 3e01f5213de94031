package core

import (
	"context"
	"math"

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
//     (QuantizeProbe: probeStepDB = SNRQuantumDB/4 steps across the
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
// float64 serial reference (EstimateAoASerial / SelectSectorSerial).
//
// The float64 dictionary stays resident for the float epilogue alone;
// every search, multipath and backup included, runs on the int16 codes.

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

// QuantizeProbe encodes a dB reading as a fixed-point code on the
// probeStepDB lattice spanning the firmware's −7…12 dB reporting window,
// saturating at the clamp bounds (exactly like the hardware does). NaN
// encodes as the floor. The codec is monotone: db1 <= db2 implies
// QuantizeProbe(db1) <= QuantizeProbe(db2).
//
//talon:noalloc
func QuantizeProbe(db float64) int16 {
	c := math.Round((db - radio.SNRMinDB) / probeStepDB)
	switch {
	case math.IsNaN(c), c < 0:
		return 0
	case c > float64(ProbeCodeMax):
		return ProbeCodeMax
	}
	return int16(c)
}

// DequantizeProbe decodes a probe code back to dB. Out-of-range codes
// clamp to the window bounds. Round-tripping any in-window dB value
// through QuantizeProbe changes it by at most probeStepDB/2.
//
//talon:noalloc
func DequantizeProbe(code int16) float64 {
	switch {
	case code < 0:
		code = 0
	case code > ProbeCodeMax:
		code = ProbeCodeMax
	}
	return radio.SNRMinDB + float64(code)*probeStepDB
}

// windowOffset returns the dB shift that moves one measurement vector
// (raw dB readings) to the top of the quantization window: its maximum
// lands at SNRMaxDB. Pearson correlation is invariant under the shift (a
// dB offset is a linear scale), and the shift is what keeps RSSI vectors
// (≈ −70 dBm) and imputed floor values inside the window. The offset is
// rounded up to the code lattice so lattice-aligned inputs (everything
// real firmware reports) stay lattice-aligned and encode losslessly.
// Components more than 19 dB below the vector maximum saturate at the
// window floor; their linear amplitude is ≤ 1.2% of the maximum, which is
// also where the float64 reference's own sensitivity ends.
//
// Components whose sector is absent from the dictionary (cols[i] < 0)
// are excluded from the maximum: the correlation skips them at every
// grid point, but a rogue reading among them (e.g. a probe for an
// unknown sector) would otherwise shift the window and saturate every
// real component to the floor.
//
//talon:noalloc
func windowOffset(db []float64, cols []int16) float64 {
	maxDB := math.Inf(-1)
	for i, v := range db {
		if cols[i] >= 0 && v > maxDB {
			maxDB = v
		}
	}
	return math.Ceil((maxDB-radio.SNRMaxDB)/probeStepDB) * probeStepDB
}

// buildQuant quantizes the dense dictionary to int16 codes and copies
// the coarse dictionary out of it. Called from newEngine after
// buildCoarse. The global scale maps the loudest finite dictionary
// amplitude to full scale — Pearson invariance makes the choice free —
// and the coarse codes are copied from the dense ones row by row, so a
// grid point shared by both quantized dictionaries scores
// bit-identically. newEngine has already rejected non-finite
// amplitudes (ErrPatternHole); a dictionary with no positive amplitude
// at all quantizes at unit scale, where every grid point then scores 0
// and estimates fail with ErrDegenerateSurface like the serial
// reference.
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
	en.dictQ = make([]int16, len(en.dict))
	for i, v := range en.dict {
		c := math.Round(v * scale)
		if c > quantOne {
			c = quantOne
		}
		en.dictQ[i] = int16(c)
	}
	if en.hier() {
		numAz := len(en.az)
		en.coarseQ = make([]int16, len(en.cAzIdx)*len(en.cElIdx)*en.stride)
		pos := 0
		for _, ei := range en.cElIdx {
			for _, ai := range en.cAzIdx {
				src := (int(ei)*numAz + int(ai)) * en.stride
				copy(en.coarseQ[pos:pos+en.stride], en.dictQ[src:src+en.stride])
				pos += en.stride
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
// per-estimate constants. pack[i] carries both probe codes SWAR-style —
// SNR in the low half, RSSI in the high half — so one 64-bit
// multiply-accumulate per component produces both cross moments (see
// jointQ).
type quantVec struct {
	cols              []int16 // dictionary column per gathered component; < 0 = absent sector
	colsC             []int32 // dictionary column per correlated component
	pack              []int64 // SNR | RSSI<<32 amplitude codes, parallel to colsC
	n                 int32
	snrSp, rssiSp     int32
	snrVarP, rssiVarP int64
}

// jointQ evaluates the joint Eq. 5 correlation at one dictionary base
// offset on the quantized kernel: Eq. 2 from single-pass int32 raw
// moments (n, Σp, Σx, Σpx, Σp², Σx²) instead of the float path's
// two-pass centered form. One fused sweep of the row accumulates the
// dictionary moments (Σx, Σx²) and both cross moments (Σpx for SNR and
// RSSI), so each int16 code is loaded once for the whole Eq. 5 product;
// the probe-side moments come precomputed from quantize(). Component
// selection mirrors the float arithmetic — skip absent columns, cap at
// quantMaxComponents, fewer than three components yield 0 — so the two
// disagree only by rounding. The w = cov²/(varP·varX) form is
// dimensionless, so quantized scores live on the same [0, 1] scale as
// float ones and the fallbackCorr threshold applies unchanged.
//
// Both accumulators are SWAR pairs: every partial sum that lands in a
// low half is bounded by quantMaxComponents·quantOne² = 64·4095² < 2³¹,
// so the low half can never carry into the high half and the two packed
// running sums stay exact. mom packs Σx² (low) with Σx (high); cross
// packs Σ snr·x (low) with Σ rssi·x (high) via the precomputed pack
// codes.
//
//talon:noalloc
func jointQ(dictQ []int16, pt int, qv *quantVec, snrOnly bool) float64 {
	n := qv.n
	if n < 3 {
		return 0
	}
	colsC, pack := qv.colsC, qv.pack
	var mom, cross int64
	for i, c := range colsC {
		x := int64(dictQ[pt+int(c)])
		mom += x * (x | 1<<32)
		cross += x * pack[i]
	}
	sx := int32(mom >> 32)
	sxx := int32(uint32(mom))
	spxS := int32(uint32(cross))
	spxR := int32(cross >> 32)
	varX := int64(n)*int64(sxx) - int64(sx)*int64(sx)
	if varX == 0 || qv.snrVarP == 0 {
		return 0
	}
	cov := int64(n)*int64(spxS) - int64(qv.snrSp)*int64(sx)
	if cov < 0 {
		return 0
	}
	v := float64(cov) * float64(cov) / (float64(qv.snrVarP) * float64(varX))
	if v == 0 || snrOnly {
		return v
	}
	if qv.rssiVarP == 0 {
		return 0
	}
	cov = int64(n)*int64(spxR) - int64(qv.rssiSp)*int64(sx)
	if cov < 0 {
		return 0
	}
	return v * (float64(cov) * float64(cov) / (float64(qv.rssiVarP) * float64(varX)))
}

// coarseTopKQ scores the coarse points [lo, hi) for one item's probe
// vector and folds the positive ones into the item's descending top-K
// (it.cells/it.scores, it.kept entries). The insertion keeps the top-K
// sorted by descending score — ties keep the earlier row-major cell —
// and because quantChunk sweeps tiles in ascending point order the final
// top-K matches a straight row-major scan, whatever the tile geometry.
//
//talon:noalloc
func (en *engine) coarseTopKQ(lo, hi int, it *quantItem, snrOnly bool) {
	kept := it.kept
	pos := lo * en.stride
	for pt := lo; pt < hi; pt++ {
		v := jointQ(en.coarseQ, pos, &it.qv, snrOnly)
		pos += en.stride
		if v <= 0 {
			continue
		}
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
		it.scores[at], it.cells[at] = v, int32(pt)
	}
	it.kept = kept
}

// refineQ rescans the dense windows around the item's kept coarse
// candidates on the quantized dictionary. Overlapping windows are merged
// per row, so no point is scored twice and the walk stays strictly
// row-major: ties break in the same order as the exhaustive scan
// (denseArgmaxQ).
//
//talon:noalloc
func (en *engine) refineQ(ctx context.Context, it *quantItem, snrOnly bool) (bestA, bestE int, bestW float64, err error) {
	numAz, numEl := len(en.az), len(en.el)
	nCAz := len(en.cAzIdx)
	var azLo, azHi, elLo, elHi [topK]int32
	for k := 0; k < it.kept; k++ {
		cell := int(it.cells[k])
		ai, ei := int(en.cAzIdx[cell%nCAz]), int(en.cElIdx[cell/nCAz])
		azLo[k] = clampIdx(ai-refineRadius, numAz)
		azHi[k] = clampIdx(ai+refineRadius, numAz)
		elLo[k] = clampIdx(ei-refineRadius, numEl)
		elHi[k] = clampIdx(ei+refineRadius, numEl)
	}
	bestA, bestE, bestW = 0, 0, -1.0
	var iv [topK]ivSpan
	for ei := 0; ei < numEl; ei++ {
		n := 0
		for k := 0; k < it.kept; k++ {
			if elLo[k] <= int32(ei) && int32(ei) <= elHi[k] {
				iv[n] = ivSpan{azLo[k], azHi[k]}
				n++
			}
		}
		if n == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && iv[j].lo < iv[j-1].lo; j-- {
				iv[j], iv[j-1] = iv[j-1], iv[j]
			}
		}
		base := ei * numAz * en.stride
		cursor := -1
		for _, s := range iv[:n] {
			lo := int(s.lo)
			if lo <= cursor {
				lo = cursor + 1
			}
			for ai := lo; ai <= int(s.hi); ai++ {
				v := jointQ(en.dictQ, base+ai*en.stride, &it.qv, snrOnly)
				if v > bestW {
					bestA, bestE, bestW = ai, ei, v
				}
			}
			if int(s.hi) > cursor {
				cursor = int(s.hi)
			}
		}
	}
	return bestA, bestE, bestW, nil
}

// denseArgmaxQ is the exhaustive quantized scan: every dense grid point
// in row-major order with the strictly-greater update, so tie-breaks
// match the serial reference's scan. No surface is materialized —
// refinement re-evaluates the handful of neighbours it needs. It passes
// over the row-major cells set in a non-nil skip bitset (multipath.go).
//
//talon:noalloc
func (en *engine) denseArgmaxQ(ctx context.Context, qv *quantVec, skip []uint64, snrOnly bool) (bestA, bestE int, bestW float64, err error) {
	numAz, numEl := len(en.az), len(en.el)
	bestW = -1.0
	for ei := 0; ei < numEl; ei++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		base := ei * numAz * en.stride
		for ai := 0; ai < numAz; ai++ {
			if pt := ei*numAz + ai; skip != nil && skip[pt>>6]&(1<<(pt&63)) != 0 {
				continue
			}
			v := jointQ(en.dictQ, base+ai*en.stride, qv, snrOnly)
			if v > bestW {
				bestA, bestE, bestW = ai, ei, v
			}
		}
	}
	return bestA, bestE, bestW, nil
}

// gatherQuant is gatherVectors into the item's scratch: identical probe
// selection, imputation and ordering, but keeping the readings in the dB
// domain — amplitudes come from the ampCodes table at quantization time,
// so the per-probe math.Pow of the serial gather disappears — and mapping
// each component straight to its dense dictionary column (-1 for sectors
// absent from the set, mirroring the serial path's nil-pattern skip).
// The steady-state estimate path allocates nothing.
//
//talon:noalloc
func (e *Estimator) gatherQuant(it *quantItem, probes []Probe) {
	reported := 0
	minSNR, minRSSI := math.Inf(1), math.Inf(1)
	for _, p := range probes {
		if !p.OK {
			continue
		}
		reported++
		if p.Meas.SNR < minSNR {
			minSNR = p.Meas.SNR
		}
		if p.Meas.RSSI < minRSSI {
			minRSSI = p.Meas.RSSI
		}
	}
	it.reported = reported
	cols := &e.en.cols
	it.qv.cols, it.snrDB, it.rssiDB = it.qv.cols[:0], it.snrDB[:0], it.rssiDB[:0]
	impute := reported > 0
	for _, p := range probes {
		switch {
		case p.OK:
			it.qv.cols = append(it.qv.cols, cols[p.Sector])
			it.snrDB = append(it.snrDB, p.Meas.SNR)
			it.rssiDB = append(it.rssiDB, p.Meas.RSSI)
		case impute:
			it.qv.cols = append(it.qv.cols, cols[p.Sector])
			it.snrDB = append(it.snrDB, minSNR-1)
			it.rssiDB = append(it.rssiDB, minRSSI-1)
		}
	}
}

// quantize encodes the gathered dB vectors into the item's quantVec:
// each vector is shifted by its windowOffset and mapped to amplitude
// codes, the components of absent sectors are dropped, and the probe
// moments are hoisted. The first quantMaxComponents present components
// are the same at every grid point, so the truncation matches the float
// path's component cap.
//
//talon:noalloc
func (it *quantItem) quantize() {
	qv := &it.qv
	offS := windowOffset(it.snrDB, qv.cols)
	offR := windowOffset(it.rssiDB, qv.cols)
	qv.colsC, qv.pack = qv.colsC[:0], qv.pack[:0]
	var spS, sppS, spR, sppR int32
	for i, c := range qv.cols {
		if c < 0 {
			continue
		}
		if len(qv.colsC) == quantMaxComponents {
			break
		}
		ps := int32(ampCodes[QuantizeProbe(it.snrDB[i]-offS)])
		pr := int32(ampCodes[QuantizeProbe(it.rssiDB[i]-offR)])
		qv.colsC = append(qv.colsC, int32(c))
		qv.pack = append(qv.pack, int64(ps)|int64(pr)<<32)
		spS += ps
		sppS += ps * ps
		spR += pr
		sppR += pr * pr
	}
	n := int32(len(qv.colsC))
	qv.n, qv.snrSp, qv.rssiSp = n, spS, spR
	qv.snrVarP = int64(n)*int64(sppS) - int64(spS)*int64(spS)
	qv.rssiVarP = int64(n)*int64(sppR) - int64(spR)*int64(spR)
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

// linearize converts the gathered dB vectors to linear amplitudes for
// the float epilogue. gatherQuant keeps the exact dB values
// gatherVectors would convert (including the minus-one imputation), so
// the amplitudes here are bit-identical to the serial reference's
// gather.
//
//talon:noalloc
func (it *quantItem) linearize() {
	it.snr, it.rssi = it.snr[:0], it.rssi[:0]
	for _, v := range it.snrDB {
		it.snr = append(it.snr, ampCached(v))
	}
	for _, v := range it.rssiDB {
		it.rssi = append(it.rssi, ampCached(v))
	}
}

// quantEpilogue turns the quantized search's argmax cell into the final
// estimate using the float64 dictionary: one Eq. 5 evaluation at the
// winning cell plus the parabolic refinement around it, O(M) work against
// the O(grid·M) integer sweep that found the cell. Quantization noise is
// thereby confined to the argmax decision itself — whenever the search
// picks the serial reference's cell (the common case the equivalence
// suite gates), the reported Az/El/Corr are bit-identical to
// EstimateAoASerial, and downstream near-tie decisions (Eq. 4 sector choice, the
// fallback threshold) cannot flip on epsilon score differences.
//
//talon:noalloc
func (e *Estimator) quantEpilogue(it *quantItem, bestA, bestE int) AoAEstimate {
	en := e.en
	snrOnly := e.opts.SNROnly
	it.linearize()
	cols := it.qv.cols
	numAz := len(en.az)
	w := en.jointAt((bestE*numAz+bestA)*en.stride, cols, it.snr, it.rssi, snrOnly)
	// The closures serve the already-computed centre value instead of
	// re-deriving it; jointAt is deterministic, so this is only a
	// recomputation skip.
	//lint:allow noalloc -- closure captures only stack values; escape analysis keeps it off the heap (see TestEstimateZeroAllocSteadyState)
	az := refineAxis(en.az, bestA, func(i int) float64 {
		if i == bestA {
			return w
		}
		return en.jointAt((bestE*numAz+i)*en.stride, cols, it.snr, it.rssi, snrOnly)
	})
	//lint:allow noalloc -- closure captures only stack values; escape analysis keeps it off the heap (see TestEstimateZeroAllocSteadyState)
	el := refineAxis(en.el, bestE, func(i int) float64 {
		if i == bestE {
			return w
		}
		return en.jointAt((i*numAz+bestA)*en.stride, cols, it.snr, it.rssi, snrOnly)
	})
	return AoAEstimate{Az: az, El: el, Corr: w, Used: it.reported, Cell: cellOf(bestA, bestE)}
}
