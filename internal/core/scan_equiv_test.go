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
// grid row, the windows' az intervals sorted and merged so no point is
// scored twice, each scanned with oracleScanRow. The windows are the
// kept coarse candidates' and, for a hint inside the grid, the hint
// cell's. decided reports a hinted winner outside every candidate
// window.
func oracleRefine(en *engine, it *quantItem, hint Cell, snrOnly bool) (best cellScore, decided bool) {
	type ivSpan struct{ lo, hi int32 }
	numAz, numEl := len(en.az), len(en.el)
	nCAz := len(en.cAzIdx)
	var azLo, azHi, elLo, elHi [topK + 1]int32
	nWin := 0
	window := func(ai, ei int) {
		azLo[nWin] = clampIdx(ai-refineRadius, numAz)
		azHi[nWin] = clampIdx(ai+refineRadius, numAz)
		elLo[nWin] = clampIdx(ei-refineRadius, numEl)
		elHi[nWin] = clampIdx(ei+refineRadius, numEl)
		nWin++
	}
	for k := 0; k < it.kept; k++ {
		cell := int(it.cells[k])
		window(int(en.cAzIdx[cell%nCAz]), int(en.cElIdx[cell/nCAz]))
	}
	ha, he, hinted := hint.split()
	if hinted = hinted && ha < numAz && he < numEl; hinted {
		window(ha, he)
	}
	best = cellScore{w: -1}
	var iv [topK + 1]ivSpan
	for ei := 0; ei < numEl; ei++ {
		n := 0
		for k := 0; k < nWin; k++ {
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
	decided = hinted
	for k := 0; k < it.kept; k++ {
		if azLo[k] <= int32(best.a) && int32(best.a) <= azHi[k] && elLo[k] <= int32(best.e) && int32(best.e) <= elHi[k] {
			decided = false
		}
	}
	return best, decided
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
// per-row scans it replaced, bit for bit in (az, el, score) and in the
// hint-decided count: refinement over random top-K sets (overlapping
// windows, windows at the grid edges, any order), each with no hint, a
// hint outside the grid or a hint window at an edge, a corner or a
// random cell, and the exhaustive scan with random skip bitsets (empty
// to full), for both block implementations and snrOnly both ways. Every
// scan must leave the mask clear.
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
	hints := []Cell{NoCell, cellOf(numAz, numEl), cellOf(numAz-1, numEl),
		cellOf(0, 0), cellOf(numAz-1, 0), cellOf(0, numEl-1), cellOf(numAz-1, numEl-1),
		cellOf(numAz/2, 0), cellOf(numAz/2, numEl-1), cellOf(0, numEl/2), cellOf(numAz-1, numEl/2),
		cellOf(refineRadius, refineRadius), cellOf(numAz-1-refineRadius, numEl-1-refineRadius)}
	fixed := len(hints)
	skip := make([]uint64, (numAz*numEl+63)/64)
	checked := 0
	for _, avx2 := range blockImpls() {
		for _, snrOnly := range []bool{false, true} {
			withBlockImpl(avx2, func() {
				for n, it := range items {
					label := func(kind string) string {
						return fmt.Sprintf("%s %s item %d", kind, implName(avx2), n)
					}
					hints = hints[:fixed]
					for r := 0; r < 6; r++ {
						hints = append(hints, cellOf(rng.Intn(numAz), rng.Intn(numEl)))
					}
					for _, h := range hints {
						it.kept = 1 + rng.Intn(topK)
						for k, c := range rng.Perm(nCoarse)[:it.kept] {
							it.cells[k] = int32(c)
						}
						hits := metWarmHits.Value()
						a, e, w, err := en.refineQ(ctx, &s, it, h, snrOnly)
						if err != nil {
							t.Fatal(err)
						}
						want, decided := oracleRefine(en, it, h, snrOnly)
						if got := (cellScore{a, e, w}); !sameCell(got, want) {
							t.Fatalf("%s snrOnly=%v cells %v hint %v: mask %+v, span walk %+v", label("refine"), snrOnly, it.cells[:it.kept], h, got, want)
						}
						wantHits := int64(0)
						if decided {
							wantHits = 1
						}
						if d := metWarmHits.Value() - hits; d != wantHits {
							t.Fatalf("%s snrOnly=%v cells %v hint %v: hint-decided count advanced by %d, oracle decided %v", label("refine"), snrOnly, it.cells[:it.kept], h, d, decided)
						}
						clean("refine")
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

// TestScanMaskNarrowGrid runs the mask scan on a grid narrower than a
// block (five az points), where every block crosses at least one row
// boundary, against the per-row oracle: the exhaustive scan with and
// without a skip bitset, and a lone hint window at every cell.
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
				it.kept = 0
				for ei := 0; ei < numEl; ei++ {
					for ai := 0; ai < numAz; ai++ {
						h := cellOf(ai, ei)
						a, e, w, err := en.refineQ(context.Background(), &s, it, h, true)
						if err != nil {
							t.Fatal(err)
						}
						if want, _ := oracleRefine(en, it, h, true); !sameCell(cellScore{a, e, w}, want) {
							t.Fatalf("%s hint %v: mask %+v, rows %+v", implName(avx2), h, cellScore{a, e, w}, want)
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
