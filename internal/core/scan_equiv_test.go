package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"talon/internal/geom"
	"talon/internal/pattern"
	"talon/internal/sector"
	"talon/internal/stats"
)

// oracleScanRow is the per-row scan the mask scan replaced, kept as its
// oracle with jointQ in place of the block: it folds the dense points
// lo…hi (inclusive) of grid row ei into best in ascending order with the
// strictly-greater update, passing over cells set in a non-nil skip
// bitset.
func oracleScanRow(en *engine, qv *quantVec, snrOnly bool, skip []uint64, ei, lo, hi int, best cellScore) cellScore {
	base := ei * len(en.az)
	for ai := lo; ai <= hi; ai++ {
		pt := base + ai
		if skip != nil && skip[pt>>6]&(1<<(pt&63)) != 0 {
			continue
		}
		if v := jointQ(en.dictQ, en.rowQ, pt, qv, snrOnly); v > best.w {
			best = cellScore{ai, ei, v}
		}
	}
	return best
}

// oracleRefine is the refinement span walk the mask scan replaced: per
// grid row, the candidate windows' az intervals sorted and merged so no
// point is scored twice, each scanned with oracleScanRow.
func oracleRefine(en *engine, it *quantItem, snrOnly bool) cellScore {
	type ivSpan struct{ lo, hi int32 }
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
	best := cellScore{w: -1}
	var iv [topK]ivSpan
	for ei := 0; ei < numEl; ei++ {
		n := 0
		for k := 0; k < it.kept; k++ {
			if elLo[k] <= int32(ei) && int32(ei) <= elHi[k] {
				iv[n] = ivSpan{azLo[k], azHi[k]}
				n++
			}
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && iv[j].lo < iv[j-1].lo; j-- {
				iv[j], iv[j-1] = iv[j-1], iv[j]
			}
		}
		cursor := -1
		for _, s := range iv[:n] {
			lo := int(s.lo)
			if lo <= cursor {
				lo = cursor + 1
			}
			best = oracleScanRow(en, &it.qv, snrOnly, nil, ei, lo, int(s.hi), best)
			if int(s.hi) > cursor {
				cursor = int(s.hi)
			}
		}
	}
	return best
}

// oracleWarm is the warm window scan: the window's rows, each with
// oracleScanRow.
func oracleWarm(en *engine, qv *quantVec, hint Cell, snrOnly bool) cellScore {
	numAz, numEl := len(en.az), len(en.el)
	ha, he, _ := hint.split()
	aLo, aHi := int(clampIdx(ha-warmRadius, numAz)), int(clampIdx(ha+warmRadius, numAz))
	eLo, eHi := int(clampIdx(he-warmRadius, numEl)), int(clampIdx(he+warmRadius, numEl))
	best := cellScore{w: -1}
	for ei := eLo; ei <= eHi; ei++ {
		best = oracleScanRow(en, qv, snrOnly, nil, ei, aLo, aHi, best)
	}
	return best
}

// oracleDense is the exhaustive scan: every row in full.
func oracleDense(en *engine, qv *quantVec, skip []uint64, snrOnly bool) cellScore {
	best := cellScore{w: -1}
	for ei := range en.el {
		best = oracleScanRow(en, qv, snrOnly, skip, ei, 0, len(en.az)-1, best)
	}
	return best
}

// sameCell reports whether two scan results agree bit for bit.
func sameCell(a, b cellScore) bool {
	return a.a == b.a && a.e == b.e && math.Float64bits(a.w) == math.Float64bits(b.w)
}

// scanItems draws the probe items the scan tests run: random vectors of
// 3 to 34 probes with dropped ones, a two-probe item (every lane 0) and
// a constant-SNR item (degenerate).
func scanItems(est *Estimator, rng *stats.RNG) []*quantItem {
	var items []*quantItem
	for m := 3; m <= len(sector.TalonTX()); m++ {
		items = append(items, quantOf(est, randomProbes(rng, m, 0.8)))
	}
	items = append(items, quantOf(est, randomProbes(rng, 2, 1)))
	flat := randomProbes(rng, 14, 1)
	for i := range flat {
		flat[i].Meas.SNR = 3
	}
	return append(items, quantOf(est, flat))
}

// TestScanMaskMatchesRowOracle pins the mask scan (scan.go) to the
// per-row scans it replaced, bit for bit in (az, el, score) and, for the
// warm window, in its accept decision: refinement over random top-K
// sets (overlapping windows, windows at the grid edges, any order), warm
// windows centred at every edge and corner and at random cells, and the
// exhaustive scan with random skip bitsets (empty to full), for both
// block implementations and snrOnly both ways. Every scan must leave the
// mask clear.
func TestScanMaskMatchesRowOracle(t *testing.T) {
	set, _ := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	en := est.en
	numAz, numEl := len(en.az), len(en.el)
	nCoarse := len(en.cAzIdx) * len(en.cElIdx)
	rng := stats.NewRNG(131)
	items := scanItems(est, rng)
	ctx := context.Background()
	var s scanScratch
	s.grow(en)
	clean := func(label string) {
		t.Helper()
		for w, x := range s.mask {
			if x != 0 {
				t.Fatalf("%s left mask word %d = %#x", label, w, x)
			}
		}
	}
	hints := []Cell{cellOf(0, 0), cellOf(numAz-1, 0), cellOf(0, numEl-1), cellOf(numAz-1, numEl-1),
		cellOf(numAz/2, 0), cellOf(numAz/2, numEl-1), cellOf(0, numEl/2), cellOf(numAz-1, numEl/2),
		cellOf(warmRadius, warmRadius), cellOf(numAz-1-warmRadius, numEl-1-warmRadius)}
	skip := make([]uint64, (numAz*numEl+63)/64)
	checked := 0
	for _, avx2 := range blockImpls() {
		for _, snrOnly := range []bool{false, true} {
			withBlockImpl(avx2, func() {
				for n, it := range items {
					label := func(kind string) string {
						return fmt.Sprintf("%s %s item %d", kind, implName(avx2), n)
					}
					for r := 0; r < 12; r++ {
						it.kept = 1 + rng.Intn(topK)
						for k, c := range rng.Perm(nCoarse)[:it.kept] {
							it.cells[k] = int32(c)
						}
						a, e, w, err := en.refineQ(ctx, &s, it, snrOnly)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := (cellScore{a, e, w}), oracleRefine(en, it, snrOnly); !sameCell(got, want) {
							t.Fatalf("%s snrOnly=%v cells %v: mask %+v, span walk %+v", label("refine"), snrOnly, it.cells[:it.kept], got, want)
						}
						clean("refine")
						checked++
					}
					for r := 0; r < 6; r++ {
						hints = append(hints[:10], cellOf(rng.Intn(numAz), rng.Intn(numEl)))
					}
					for _, h := range hints {
						a, e, w, ok := en.warmArgmaxQ(&s, &it.qv, h, snrOnly)
						want := oracleWarm(en, &it.qv, h, snrOnly)
						if got := (cellScore{a, e, w}); !sameCell(got, want) {
							t.Fatalf("%s snrOnly=%v hint %v: mask %+v, rows %+v", label("warm"), snrOnly, h, got, want)
						}
						if okRef := warmAccepts(en, want, h); ok != okRef {
							t.Fatalf("%s snrOnly=%v hint %v: ok %v, rows %v", label("warm"), snrOnly, h, ok, okRef)
						}
						clean("warm")
						checked++
					}
					for _, p := range []float64{0, 0.1, 0.5, 0.95, 1} {
						var sk []uint64
						if p > 0 {
							clear(skip)
							for pt := 0; pt < numAz*numEl; pt++ {
								if p == 1 || rng.Float64() < p {
									skip[pt>>6] |= 1 << (pt & 63)
								}
							}
							sk = skip
						}
						a, e, w, err := en.denseArgmaxQ(ctx, &s, &it.qv, sk, snrOnly)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := (cellScore{a, e, w}), oracleDense(en, &it.qv, sk, snrOnly); !sameCell(got, want) {
							t.Fatalf("%s snrOnly=%v skip p=%v: mask %+v, rows %+v", label("dense"), snrOnly, p, got, want)
						}
						clean("dense")
						checked++
					}
				}
			})
		}
	}
	t.Logf("%d scans bit-identical to the per-row oracle", checked)
}

// warmAccepts applies warmArgmaxQ's guards to an oracle window result.
func warmAccepts(en *engine, best cellScore, hint Cell) bool {
	numAz, numEl := len(en.az), len(en.el)
	ha, he, _ := hint.split()
	aLo, aHi := int(clampIdx(ha-warmRadius, numAz)), int(clampIdx(ha+warmRadius, numAz))
	eLo, eHi := int(clampIdx(he-warmRadius, numEl)), int(clampIdx(he+warmRadius, numEl))
	return best.w >= warmThreshold &&
		!((best.a == aLo && aLo > 0) || (best.a == aHi && aHi < numAz-1) ||
			(best.e == eLo && eLo > 0) || (best.e == eHi && eHi < numEl-1))
}

// TestScanMaskNarrowGrid runs the mask scan on a grid narrower than a
// block (five az points), where every block crosses at least one row
// boundary, against the per-row oracle: the exhaustive scan with and
// without a skip bitset, and warm windows at every cell.
func TestScanMaskNarrowGrid(t *testing.T) {
	grid, err := geom.UniformGrid(-4, 4, 2, 0, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, gain := synthSetup(t)
	set := pattern.NewSet()
	for _, id := range sector.TalonTX() {
		id := id
		if err := set.Put(id, pattern.FromFunc(grid, func(az, el float64) float64 { return gain(id, 10*az, 2*el) })); err != nil {
			t.Fatal(err)
		}
	}
	est, err := NewEstimator(set, Options{ExactSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	en := est.en
	numAz, numEl := len(en.az), len(en.el)
	rng := stats.NewRNG(137)
	var s scanScratch
	s.grow(en)
	skip := make([]uint64, (numAz*numEl+63)/64)
	for _, avx2 := range blockImpls() {
		withBlockImpl(avx2, func() {
			for _, it := range scanItems(est, rng) {
				for pt := 0; pt < numAz*numEl; pt += 3 {
					skip[pt>>6] |= 1 << (pt & 63)
				}
				for _, sk := range [][]uint64{nil, skip} {
					a, e, w, err := en.denseArgmaxQ(context.Background(), &s, &it.qv, sk, false)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := (cellScore{a, e, w}), oracleDense(en, &it.qv, sk, false); !sameCell(got, want) {
						t.Fatalf("%s dense: mask %+v, rows %+v", implName(avx2), got, want)
					}
				}
				for ei := 0; ei < numEl; ei++ {
					for ai := 0; ai < numAz; ai++ {
						h := cellOf(ai, ei)
						a, e, w, _ := en.warmArgmaxQ(&s, &it.qv, h, true)
						if got, want := (cellScore{a, e, w}), oracleWarm(en, &it.qv, h, true); !sameCell(got, want) {
							t.Fatalf("%s warm %v: mask %+v, rows %+v", implName(avx2), h, got, want)
						}
					}
				}
			}
		})
	}
}

// TestScanCoverPacksMask checks the block list cover builds: every
// marked point sits in exactly one block lane marked used, no unmarked
// point is marked used, starts ascend at least blockLanes apart, and
// each start is a marked point; the work-unit counts add up.
func TestScanCoverPacksMask(t *testing.T) {
	set, _ := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	en := est.en
	nPts := len(en.az) * len(en.el)
	rng := stats.NewRNG(139)
	var s scanScratch
	s.grow(en)
	want := make([]bool, nPts)
	for r := 0; r < 200; r++ {
		clear(want)
		p := rng.Float64()
		for i := 0; i < 1+rng.Intn(12); i++ {
			lo := rng.Intn(nPts)
			hi := min(nPts-1, lo+rng.Intn(160))
			if rng.Float64() < p {
				hi = lo
			}
			s.mark(lo, hi)
			for pt := lo; pt <= hi; pt++ {
				want[pt] = true
			}
		}
		nWant := 0
		for _, w := range want {
			if w {
				nWant++
			}
		}
		blocks, lanes := s.blocks, s.lanes
		nb := s.cover()
		if s.blocks-blocks != nb || s.lanes-lanes != nWant {
			t.Fatalf("round %d: counted %d blocks, %d lanes; want %d, %d", r, s.blocks-blocks, s.lanes-lanes, nb, nWant)
		}
		got := make([]bool, nPts)
		for b, st := range s.starts[:nb] {
			if !want[st] || (b > 0 && st < s.starts[b-1]+blockLanes) {
				t.Fatalf("round %d: block %d starts at %d (previous %d)", r, b, st, s.starts[max(b-1, 0)])
			}
			for j := 0; j < blockLanes; j++ {
				pt := int(st) + j
				if s.used[b]&(1<<j) == 0 {
					if pt < nPts && want[pt] && (b+1 == nb || pt < int(s.starts[b+1])) {
						t.Fatalf("round %d: point %d wanted but lane %d of block %d unused", r, pt, j, b)
					}
					continue
				}
				if pt >= nPts || !want[pt] || got[pt] {
					t.Fatalf("round %d: block %d lane %d (point %d) marked used wrongly", r, b, j, pt)
				}
				got[pt] = true
			}
		}
		for pt := range want {
			if want[pt] != got[pt] {
				t.Fatalf("round %d: point %d wanted %v, covered %v", r, pt, want[pt], got[pt])
			}
		}
		for w, x := range s.mask {
			if x != 0 {
				t.Fatalf("round %d: mask word %d left %#x", r, w, x)
			}
		}
	}
}
