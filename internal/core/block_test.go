package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// avx2Available records the init-time dispatch, before any test flips
// useAVX2.
var avx2Available = useAVX2

// blockImpls lists the block implementations this machine runs: the
// generic one always, the AVX2 kernel where the init check found it.
func blockImpls() []bool {
	if avx2Available {
		return []bool{false, true}
	}
	return []bool{false}
}

// withBlockImpl runs f with scoreBlocks dispatched to the AVX2 kernel
// (avx2) or the generic block.
func withBlockImpl(avx2 bool, f func()) {
	saved := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = saved }()
	f()
}

func implName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "generic"
}

// jointQ is the point-at-a-time quantized correlation the block kernel
// replaced, kept as its oracle: one sweep of the point's codes over the
// correlated components accumulates Σx, Σx² and both cross moments in
// int32, the probe moments come hoisted from quantize, and the int64
// finish returns early exactly where the block's lane guards zero a
// lane. d is a sector-major dictionary with row codes per column.
func jointQ(d []int16, row, pt int, qv *quantVec, snrOnly bool) float64 {
	n := qv.n
	if n < 3 {
		return 0
	}
	var sx, sxx, spxS, spxR int32
	for i, c := range qv.colsC {
		x := int32(d[int(c)*row+pt])
		sx += x
		sxx += x * x
		spxS += qv.ps[i] * x
		spxR += qv.pr[i] * x
	}
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

// jointQScalar is the scalar-moment reference: the same component set
// and probe codes, but six separate int32 accumulators per correlation
// and no hoisted probe moments.
func jointQScalar(d []int16, row, pt int, qv *quantVec, snrOnly bool) float64 {
	corr := func(codes []int32) float64 {
		var n, sp, sx, spx, spp, sxx int32
		for i, c := range qv.colsC {
			x := int32(d[int(c)*row+pt])
			p := codes[i]
			n++
			sp += p
			sx += x
			spx += p * x
			spp += p * p
			sxx += x * x
		}
		if n < 3 {
			return 0
		}
		cov := int64(n)*int64(spx) - int64(sp)*int64(sx)
		varP := int64(n)*int64(spp) - int64(sp)*int64(sp)
		varX := int64(n)*int64(sxx) - int64(sx)*int64(sx)
		if varP == 0 || varX == 0 || cov < 0 {
			return 0
		}
		return float64(cov) * float64(cov) / (float64(varP) * float64(varX))
	}
	v := corr(qv.ps)
	if v != 0 && !snrOnly {
		v *= corr(qv.pr)
	}
	return v
}

// laneMasks are the used-lane masks checkBlocks hands single blocks:
// one lane, each half alone, a straddling pair and all eight.
var laneMasks = [...]uint8{0x01, 0x0f, 0xf0, 0x18, 0x80, 0xff}

// checkBlocks scores a sector-major dictionary of nPts points (row codes
// per column) with every block implementation, snrOnly both ways, and
// requires each used lane inside the dictionary to match jointQScalar
// and jointQ bit for bit: every block start alone under each of
// laneMasks, the consecutive cover from point 0 in one call, the extra
// starts (row boundaries, say) in one call, and random block lists —
// overlapping, unordered, repeated starts, random lane masks — drawn
// from rng. It returns the number of lanes compared.
func checkBlocks(t testing.TB, label string, d []int16, row, nPts int, qv *quantVec, extra []int32, rng *stats.RNG) int {
	t.Helper()
	lanes := 0
	ref := make([][2]float64, nPts)
	for pt := range ref {
		for k, snrOnly := range []bool{false, true} {
			ref[pt][k] = jointQScalar(d, row, pt, qv, snrOnly)
			if q := jointQ(d, row, pt, qv, snrOnly); math.Float64bits(q) != math.Float64bits(ref[pt][k]) {
				t.Fatalf("%s snrOnly=%v pt %d: jointQ %v != scalar %v", label, snrOnly, pt, q, ref[pt][k])
			}
		}
	}
	var lists [][]int32
	var cover []int32
	for pt := 0; pt < nPts; pt += blockLanes {
		cover = append(cover, int32(pt))
	}
	lists = append(lists, cover)
	if len(extra) > 0 {
		lists = append(lists, extra)
	}
	for r := 0; r < 8; r++ {
		l := make([]int32, 1+rng.Intn(40))
		for i := range l {
			l[i] = int32(rng.Intn(nPts))
		}
		lists = append(lists, l)
	}
	var out []float64
	var pos []uint8
	check := func(avx2, snrOnly bool, starts []int32, used []uint8) {
		out = append(out[:0], make([]float64, len(starts)*blockLanes)...)
		for i := range out {
			out[i] = math.NaN()
		}
		pos = append(pos[:0], make([]uint8, len(starts))...)
		scoreBlocks(d, row, starts, used, qv, snrOnly, out, pos)
		for b, st := range starts {
			for j := 0; j < blockLanes; j++ {
				pt := int(st) + j
				if used[b]&(1<<j) == 0 || pt >= nPts {
					continue
				}
				want := ref[pt][boolIdx(snrOnly)]
				if got := out[b*blockLanes+j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s snrOnly=%v block %d of %d (start %d, used %#x) lane %d: %v (%#x) != scalar %v (%#x)",
						label, implName(avx2), snrOnly, b, len(starts), st, used[b], j, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if got := pos[b]&(1<<j) != 0; got != (want > 0) {
					t.Fatalf("%s %s snrOnly=%v block %d (start %d, used %#x) lane %d: score %v, positive bit %v",
						label, implName(avx2), snrOnly, b, st, used[b], j, want, got)
				}
				lanes++
			}
			if pos[b]&^used[b] != 0 {
				t.Fatalf("%s %s snrOnly=%v block %d: positive lanes %#x outside used %#x", label, implName(avx2), snrOnly, b, pos[b], used[b])
			}
		}
	}
	for _, avx2 := range blockImpls() {
		for _, snrOnly := range []bool{false, true} {
			withBlockImpl(avx2, func() {
				for pt := 0; pt < nPts; pt++ {
					for _, u := range laneMasks {
						check(avx2, snrOnly, []int32{int32(pt)}, []uint8{u})
					}
				}
				for li, starts := range lists {
					used := make([]uint8, len(starts))
					for b := range used {
						used[b] = 0xff
						if li >= 2 {
							used[b] = uint8(1 + rng.Intn(255))
						}
					}
					check(avx2, snrOnly, starts, used)
				}
			})
		}
	}
	return lanes
}

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkEngineBlocks runs checkBlocks over both quantized dictionaries of
// an engine; the dense one also gets a list of blocks that cross each
// grid row boundary and one at the last grid point.
func checkEngineBlocks(t testing.TB, label string, en *engine, qv *quantVec, rng *stats.RNG) int {
	t.Helper()
	numAz, nPts := len(en.az), len(en.az)*len(en.el)
	var cross []int32
	for ei := 1; ei < len(en.el); ei++ {
		cross = append(cross, int32(ei*numAz-1-ei%(blockLanes-1)))
	}
	cross = append(cross, int32(nPts-1))
	lanes := checkBlocks(t, label+" dense", en.dictQ, en.rowQ, nPts, qv, cross, rng)
	if en.hier() {
		lanes += checkBlocks(t, label+" coarse", en.coarseQ, en.rowC, len(en.cAzIdx)*len(en.cElIdx), qv, nil, rng)
	}
	return lanes
}

// randomProbes draws m distinct TX sectors with lattice SNR and RSSI
// readings, each reported with probability pOK.
func randomProbes(rng *stats.RNG, m int, pOK float64) []Probe {
	ids := sector.TalonTX()
	perm := rng.Perm(len(ids))
	probes := make([]Probe, m)
	for i := range probes {
		probes[i] = Probe{
			Sector: ids[perm[i]],
			OK:     rng.Float64() < pOK,
			Meas: radio.Measurement{
				SNR:  math.Round(-40+100*rng.Float64()) / 4,
				RSSI: -70 + math.Round(-40+100*rng.Float64())/4,
			},
		}
	}
	return probes
}

// quantOf gathers and quantizes probes on est's engine, packed for its
// two dictionary pitches as the estimate path packs them.
func quantOf(est *Estimator, probes []Probe) *quantItem {
	it := &quantItem{}
	est.gatherQuant(it, probes)
	it.quantize(est.en.rowQ, est.en.rowC)
	return it
}

// packed quantizes it again — the production quantize, so the pair
// words and column offsets are the ones the kernel reads — for
// dictionaries of rowQ and rowC codes per column, and returns its
// quantVec.
func packed(it *quantItem, rowQ, rowC int) *quantVec {
	it.quantize(rowQ, rowC)
	return &it.qv
}

// repeatProbes returns n probes over the TX sectors in turn (sectors
// repeat past 34), all reported, with random lattice readings: a vector
// of any component count up to the cap and past it.
func repeatProbes(rng *stats.RNG, n int) []Probe {
	ids := sector.TalonTX()
	probes := make([]Probe, n)
	for i := range probes {
		probes[i] = Probe{Sector: ids[i%len(ids)], OK: true, Meas: radio.Measurement{
			SNR:  math.Round(-40+100*rng.Float64()) / 4,
			RSSI: -70 + math.Round(-40+100*rng.Float64())/4,
		}}
	}
	return probes
}

// TestQuantBlockMatchesScalar pins the block-list kernel — the AVX2
// assembly where the CPU has it, and the generic Go blocks — to the
// scalar-moment reference bit for bit at every dense and coarse point,
// from every block start under several lane masks and in whole block
// lists (checkBlocks): random items of 3 to 34 probes with dropped
// probes, snrOnly on and off, and the degenerate cases the lane guards
// handle (fewer than three components, constant probes, a point whose
// probed codes are all equal, full-scale moments at the component cap).
func TestQuantBlockMatchesScalar(t *testing.T) {
	set, _ := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	en := est.en
	if !en.hier() {
		t.Fatal("synthetic estimator built no coarse grid")
	}
	if !avx2Available {
		t.Log("no AVX2 on this machine: checking the generic block only")
	}
	rng := stats.NewRNG(73)
	lanes := 0
	odd, even := 0, 0
	for m := 3; m <= len(sector.TalonTX()); m++ {
		it := quantOf(est, randomProbes(rng, m, 0.8))
		if it.qv.n%2 == 1 {
			odd++
		} else {
			even++
		}
		lanes += checkEngineBlocks(t, "random", en, &it.qv, rng)
	}
	if odd == 0 || even == 0 {
		t.Fatalf("random items: %d odd and %d even component counts, want both", odd, even)
	}
	// The smallest count the kernel scores (one pair and the unpaired
	// step) and the cap's odd and even neighbours.
	for _, n := range []int{3, 4, 5, quantMaxComponents - 1, quantMaxComponents, quantMaxComponents + 5} {
		it := quantOf(est, repeatProbes(rng, n))
		if want := int32(min(n, quantMaxComponents)); it.qv.n != want {
			t.Fatalf("%d-probe item correlates %d components, want %d", n, it.qv.n, want)
		}
		lanes += checkEngineBlocks(t, fmt.Sprintf("n=%d", it.qv.n), en, &it.qv, rng)
	}

	// Fewer than three components: every lane scores 0.
	two := quantOf(est, randomProbes(rng, 2, 1))
	if two.qv.n >= 3 {
		t.Fatalf("two-probe item correlates %d components", two.qv.n)
	}
	lanes += checkEngineBlocks(t, "n<3", en, &two.qv, rng)

	// Constant SNR probes (snrVarP = 0), then constant RSSI probes only
	// (rssiVarP = 0, which zeroes the joint score but not snrOnly's).
	flat := randomProbes(rng, 14, 1)
	for i := range flat {
		flat[i].Meas.SNR = 3
	}
	it := quantOf(est, flat)
	if it.qv.snrVarP != 0 {
		t.Fatalf("constant SNR probes: snrVarP = %d", it.qv.snrVarP)
	}
	lanes += checkEngineBlocks(t, "constant snr", en, &it.qv, rng)
	flat = randomProbes(rng, 14, 1)
	for i := range flat {
		flat[i].Meas.RSSI = -60
	}
	it = quantOf(est, flat)
	if it.qv.rssiVarP != 0 || it.qv.snrVarP == 0 {
		t.Fatalf("constant RSSI probes: snrVarP = %d, rssiVarP = %d", it.qv.snrVarP, it.qv.rssiVarP)
	}
	lanes += checkEngineBlocks(t, "constant rssi", en, &it.qv, rng)

	// A synthetic dictionary with flat points (varX = 0: every column
	// holds the same code, zero and full scale included) between random
	// ones, an odd point count so the last blocks read padding.
	const nPts = 37
	stride := en.stride
	row := nPts + blockLanes
	d := make([]int16, stride*row)
	for c := 0; c < stride; c++ {
		for pt := 0; pt < nPts; pt++ {
			code := int16(rng.Intn(quantOne + 1))
			switch pt % 5 {
			case 1:
				code = 0
			case 2:
				code = quantOne
			case 3:
				code = int16(pt * 97 % quantOne)
			}
			d[c*row+pt] = code
		}
	}
	for m := 3; m <= len(sector.TalonTX()); m += 5 {
		it := quantOf(est, randomProbes(rng, m, 0.9))
		lanes += checkBlocks(t, "flat points", d, row, nPts, packed(it, row, 0), nil, rng)
	}

	// The moment bound: quantMaxComponents components (sectors repeat)
	// over full-scale codes, the SNR probes alternating between the top
	// and the floor of the window and the RSSI probes in pairs.
	ids := sector.TalonTX()
	probes := make([]Probe, quantMaxComponents)
	for i := range probes {
		probes[i] = Probe{Sector: ids[i%len(ids)], OK: true, Meas: radio.Measurement{
			SNR:  []float64{radio.SNRMaxDB, radio.SNRMinDB}[i%2],
			RSSI: []float64{-50, -70}[(i/2)%2],
		}}
	}
	for c := 0; c < stride; c++ {
		for pt := 0; pt < nPts; pt += 2 {
			d[c*row+pt] = quantOne
		}
	}
	for _, n := range []int{quantMaxComponents - 1, quantMaxComponents} {
		it = quantOf(est, probes[:n])
		if it.qv.n != int32(n) {
			t.Fatalf("moment-bound item correlates %d components, want %d", it.qv.n, n)
		}
		lanes += checkBlocks(t, fmt.Sprintf("moment bound n=%d", n), d, row, nPts, packed(it, row, 0), nil, rng)
	}
	t.Logf("%d lanes bit-identical", lanes)
}

// foldArgmax is the sequential fold the fused argmax replaced: the used
// lanes of the blocks in order, each block's in ascending lane order,
// with the strictly-greater update from score −1 at point 0. ref holds
// every point's score.
func foldArgmax(ref []float64, starts []int32, used []uint8) (pt int, w float64) {
	pt, w = 0, -1
	for b, st := range starts {
		for j := 0; j < blockLanes; j++ {
			if used[b]&(1<<j) != 0 && ref[int(st)+j] > w {
				pt, w = int(st)+j, ref[int(st)+j]
			}
		}
	}
	return pt, w
}

// ascendingBlocks draws a block list of the shape cover builds:
// ascending, non-overlapping starts with gaps of 0 to maxGap points and
// used lanes inside the nPts points. Unlike cover's blocks, a block's
// first lane may be unused and, rarely, none of its lanes.
func ascendingBlocks(rng *stats.RNG, nPts, maxGap int) (starts []int32, used []uint8) {
	for pt := rng.Intn(maxGap + 1); pt < nPts; pt += blockLanes + rng.Intn(maxGap+1) {
		u := uint8(rng.Intn(256))
		if rng.Float64() < 0.5 {
			u |= 1
		}
		if pt+blockLanes > nPts {
			u &= uint8(1<<(nPts-pt) - 1)
		}
		starts, used = append(starts, int32(pt)), append(used, u)
	}
	return starts, used
}

// checkArgmax requires argmaxBlocks to return foldArgmax's point and
// score bits on block lists of the sector-major dictionary d (nPts
// points, row codes per column), with every block implementation and
// snrOnly both ways: no block, blocks with no used lane, the full cover
// from point 0, each list of extra (row boundaries, say) and random
// ascending lists, dense and sparse. It returns the number of lists
// compared.
func checkArgmax(t testing.TB, label string, d []int16, row, nPts int, qv *quantVec, extra [][]int32, rng *stats.RNG) int {
	t.Helper()
	ref := make([][2]float64, nPts)
	for pt := range ref {
		ref[pt] = [2]float64{jointQ(d, row, pt, qv, false), jointQ(d, row, pt, qv, true)}
	}
	type list struct {
		starts []int32
		used   []uint8
	}
	lists := []list{{}, {[]int32{0, int32(min(blockLanes, nPts-1))}, []uint8{0, 0}}}
	var cover list
	for pt := 0; pt < nPts; pt += blockLanes {
		cover.starts = append(cover.starts, int32(pt))
		cover.used = append(cover.used, uint8(1<<min(blockLanes, nPts-pt)-1))
	}
	lists = append(lists, cover)
	for _, starts := range extra {
		l := list{starts: starts}
		for _, st := range starts {
			l.used = append(l.used, uint8(1<<min(blockLanes, nPts-int(st))-1))
		}
		lists = append(lists, l)
	}
	for _, maxGap := range []int{0, 0, 3, 9, 40} {
		starts, used := ascendingBlocks(rng, nPts, maxGap)
		lists = append(lists, list{starts, used})
	}
	refs := make([]float64, nPts)
	for _, avx2 := range blockImpls() {
		for _, snrOnly := range []bool{false, true} {
			for pt := range refs {
				refs[pt] = ref[pt][boolIdx(snrOnly)]
			}
			withBlockImpl(avx2, func() {
				for _, l := range lists {
					wantPt, wantW := foldArgmax(refs, l.starts, l.used)
					pt, w := argmaxBlocks(d, row, l.starts, l.used, qv, snrOnly)
					if pt != wantPt || math.Float64bits(w) != math.Float64bits(wantW) {
						t.Fatalf("%s %s snrOnly=%v starts %v used %v: fused argmax point %d score %v (%#x), sequential fold point %d score %v (%#x)",
							label, implName(avx2), snrOnly, l.starts, l.used, pt, w, math.Float64bits(w), wantPt, wantW, math.Float64bits(wantW))
					}
				}
			})
		}
	}
	return len(lists) * len(blockImpls()) * 2
}

// tieDict builds a sector-major dictionary of nPts points over stride
// columns (padded to nPts+blockLanes codes per column) whose points
// repeat one another: about half the points copy every code of an
// earlier point, so their scores tie exactly, and every seventh point is
// flat (score 0).
func tieDict(rng *stats.RNG, stride, nPts int) (d []int16, row int) {
	row = nPts + blockLanes
	d = make([]int16, stride*row)
	for pt := 0; pt < nPts; pt++ {
		src := -1
		if pt > 0 && rng.Float64() < 0.5 {
			src = rng.Intn(pt)
		}
		for c := 0; c < stride; c++ {
			code := int16(rng.Intn(quantOne + 1))
			switch {
			case src >= 0:
				code = d[c*row+src]
			case pt%7 == 3:
				code = quantOne / 3
			}
			d[c*row+pt] = code
		}
	}
	return d, row
}

// TestFusedArgmaxMatchesFold pins the fused argmax (argmaxBlocks: the
// AVX2 kernel's per-lane fold and the generic block's) to the
// sequential strictly-greater fold it replaced, in point and score bits
// (checkArgmax): random items of 3 to 34 probes on both engine
// dictionaries, with lists that cross every dense row boundary; forced
// ties (a dictionary whose points duplicate one another, the scores
// equal across lanes and blocks); and all-zero surfaces (a degenerate
// item, constant SNR probes, a dictionary of flat points).
func TestFusedArgmaxMatchesFold(t *testing.T) {
	set, _ := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	en := est.en
	numAz, nPts := len(en.az), len(en.az)*len(en.el)
	nCoarse := len(en.cAzIdx) * len(en.cElIdx)
	var cross [][]int32
	for _, back := range []int{1, 4, blockLanes - 1} {
		var l []int32
		for ei := 1; ei < len(en.el); ei++ {
			l = append(l, int32(ei*numAz-back))
		}
		cross = append(cross, l)
	}
	rng := stats.NewRNG(149)
	lists := 0
	items := scanItems(est, rng)
	for n, it := range items {
		lists += checkArgmax(t, fmt.Sprintf("dense item %d", n), en.dictQ, en.rowQ, nPts, &it.qv, cross, rng)
		lists += checkArgmax(t, fmt.Sprintf("coarse item %d", n), en.coarseQ, en.rowC, nCoarse, &it.qv, nil, rng)
	}
	for r := 0; r < 8; r++ {
		d, row := tieDict(rng, en.stride, 61+r*13)
		for _, it := range items[:6] {
			lists += checkArgmax(t, fmt.Sprintf("ties %d", r), d, row, 61+r*13, packed(it, row, 0), nil, rng)
		}
	}
	flat := make([]int16, en.stride*(45+blockLanes))
	for i := range flat {
		flat[i] = quantOne / 2
	}
	for _, it := range items {
		lists += checkArgmax(t, "flat", flat, 45+blockLanes, 45, packed(it, 45+blockLanes, 0), nil, rng)
	}
	t.Logf("%d block lists folded identically", lists)
}

// FuzzScoreBlock feeds arbitrary probe vectors (decodeFuzzProbes:
// unknown and duplicate sectors, dropped probes, non-finite readings,
// up to 96 probes) through gather and quantize, then requires every
// block implementation to match the scalar-moment reference at every
// dense and coarse point, block by block and in block lists, the fused
// argmax on the dense dictionary to match the sequential fold, and the
// coarse top-K over random tilings to match the sequential one.
func FuzzScoreBlock(f *testing.F) {
	set, gain := synthSetup(f)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		f.Fatal(err)
	}
	rng := stats.NewRNG(97)
	f.Add(encodeFuzzProbes(observe(f, gain, sector.TalonTX(), 20, 9, quietModel(), rng)))
	f.Add(encodeFuzzProbes(observe(f, gain, sector.TalonTX()[:3], -40, 3, quietModel(), rng)))
	f.Add(encodeFuzzProbes(randomProbes(rng, 14, 0.7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		it := quantOf(est, decodeFuzzProbes(data))
		rng := stats.NewRNG(int64(len(data)))
		en := est.en
		checkEngineBlocks(t, "fuzz", en, &it.qv, rng)
		checkArgmax(t, "fuzz dense", en.dictQ, en.rowQ, len(en.az)*len(en.el), &it.qv, nil, rng)
		checkTopK(t, "fuzz coarse", en.coarseQ, en.rowC, len(en.cAzIdx)*len(en.cElIdx), &it.qv, rng)
	})
}

// TestQuantBlockDispatch runs a seeded 1,000-item batch — cold items,
// then the same probes with every other item hinted by its cold cell —
// through the AVX2 kernel and through the generic block, on the default
// and the exhaustive estimator: every result must be identical.
func TestQuantBlockDispatch(t *testing.T) {
	if !avx2Available {
		t.Skip("no AVX2 on this machine: the generic block is the only path")
	}
	set, gain := synthSetup(t)
	ctx := context.Background()
	for _, opts := range []Options{{}, {ExactSearch: true}, {SNROnly: true}} {
		est, err := NewEstimator(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(83)
		batch := make([]BatchItem, 1000)
		for i := range batch {
			batch[i].Probes = observe(t, gain, sector.TalonTX()[:14+i%21], -70+140*rng.Float64(), 28*rng.Float64(), radio.DefaultMeasurementModel(), rng)
		}
		run := func(avx2 bool) []BatchResult {
			var out []BatchResult
			withBlockImpl(avx2, func() {
				out, err = est.SelectSectorBatch(ctx, batch, 1)
			})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		same := func(label string, want []BatchResult) {
			t.Helper()
			got := run(false)
			for i := range got {
				if !identicalResult(got[i], want[i]) {
					t.Fatalf("%+v %s item %d: generic %+v, AVX2 %+v", opts, label, i, got[i], want[i])
				}
			}
		}
		cold := run(true)
		same("cold", cold)
		for i := 0; i < len(batch); i += 2 {
			batch[i].Hint = cold[i].Selection.AoA.Cell
		}
		same("hinted", run(true))
	}
}

// TestBatchScratchZeroAllocAcrossProcs changes GOMAXPROCS between
// batches: the engine's scratch free list is shared by every P, so once
// warm, no batch allocates whichever P serves it.
func TestBatchScratchZeroAllocAcrossProcs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(89)
	batch := make([]BatchItem, 96)
	for i := range batch {
		batch[i].Probes = observe(t, gain, sector.TalonTX(), -60+120*rng.Float64(), 12, quietModel(), rng)
	}
	out := make([]BatchResult, len(batch))
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := [...]int{2, 1, 3}
	serve := func() {
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			if _, err := est.SelectSectorBatchInto(ctx, batch, 1, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve()
	misses := metScratchMisses.Value()
	if allocs := testing.AllocsPerRun(20, serve); allocs != 0 {
		t.Fatalf("batches across GOMAXPROCS changes allocate %.1f times per round, want 0", allocs)
	}
	if got := metScratchMisses.Value() - misses; got != 0 {
		t.Fatalf("%d scratch free-list misses after warm-up, want 0", got)
	}
}
