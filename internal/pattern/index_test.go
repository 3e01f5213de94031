package pattern

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"talon/internal/geom"
	"talon/internal/sector"
)

// absentID is a sector ID no test set holds.
const absentID sector.ID = 200

// lookupTestSet builds the 34 Talon TX sectors plus the RX pattern on grid
// as smooth beams with random peaks and widths, then knocks out a share
// holes of the samples (NaN), as undecodable chamber points do, and sets
// a share infs of the others to +Inf or −Inf.
func lookupTestSet(t testing.TB, grid *geom.Grid, holes, infs float64, seed int64) *Set {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewSet()
	for _, id := range sector.TalonAll() {
		az0, el0 := -80+160*rng.Float64(), 30*rng.Float64()
		w := 10 + 20*rng.Float64()
		p := FromFunc(grid, func(az, el float64) float64 {
			d2 := (az-az0)*(az-az0) + 2*(el-el0)*(el-el0)
			return 12 - 20*(1-math.Exp(-d2/(2*w*w)))
		})
		for e := 0; e < grid.NumEl(); e++ {
			for a := 0; a < grid.NumAz(); a++ {
				if rng.Float64() < holes {
					p.Set(a, e, math.NaN())
				} else if infs > 0 && rng.Float64() < infs {
					p.Set(a, e, math.Inf(1-2*rng.Intn(2)))
				}
			}
		}
		if err := s.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func mustNewGrid(t testing.TB, az, el []float64) *geom.Grid {
	t.Helper()
	g, err := geom.NewGrid(az, el)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// campaignGrid is the full-fidelity chamber grid: 91 azimuths × 9
// elevations.
func campaignGrid(t testing.TB) *geom.Grid { return mustGrid(t, -90, 90, 2, 0, 32, 4) }

// lookupDirections returns the directions the bit-identity checks probe
// on grid: every grid node (so the last sample of each axis, Bracket's
// n−2, t=1 branch), points just inside the last sample, out-of-grid
// clamps, non-finite angles, and random points in and around the grid.
func lookupDirections(grid *geom.Grid, rng *rand.Rand, random int) [][2]float64 {
	az, el := grid.Az(), grid.El()
	azLo, azHi, elLo, elHi := az[0], az[len(az)-1], el[0], el[len(el)-1]
	var out [][2]float64
	for _, e := range el {
		for _, a := range az {
			out = append(out, [2]float64{a, e})
		}
	}
	out = append(out,
		[2]float64{math.Nextafter(azHi, math.Inf(-1)), math.Nextafter(elHi, math.Inf(-1))},
		[2]float64{math.Nextafter(azLo, math.Inf(1)), elHi},
		[2]float64{azLo - 7, elLo - 3}, [2]float64{azHi + 7, elHi + 3},
		[2]float64{-1e300, 1e300}, [2]float64{1e300, -1e300},
	)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		out = append(out, [2]float64{v, elLo}, [2]float64{azHi, v}, [2]float64{v, v})
	}
	for i := 0; i < random; i++ {
		out = append(out, [2]float64{
			azLo - 10 + (azHi-azLo+20)*rng.Float64(),
			elLo - 5 + (elHi-elLo+10)*rng.Float64(),
		})
	}
	return out
}

// scanBestSector is the sort-and-scan Eq. 4 loop the index replaced:
// Pattern.At per TX sector in ascending ID order, strictly greater wins.
func scanBestSector(s *Set, az, el float64) (sector.ID, float64) {
	best, bestGain := sector.RX, math.Inf(-1)
	found := false
	for _, id := range s.TXIDs() {
		g := s.Get(id).At(az, el)
		if math.IsNaN(g) {
			continue
		}
		if g > bestGain {
			best, bestGain, found = id, g, true
		}
	}
	if !found {
		return sector.RX, math.NaN()
	}
	return best, bestGain
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// infCorner reports whether one of sector id's four corners at l is
// infinite.
func infCorner(ix *Index, l Loc, id sector.ID) bool {
	c := int(ix.col[id]) - 1
	if c < 0 {
		return false
	}
	for _, o := range [4]int{l.o00, l.o01, l.o10, l.o11} {
		if math.IsInf(ix.gain[o+c], 0) {
			return true
		}
	}
	return false
}

// checkLookups compares every index lookup at (az, el) with Pattern.At
// and the scan loop, bit for bit. One exception: at a NaN direction a
// sector with an infinite corner in the cell meets the direction's own
// NaN and the NaN of Inf·0 in one sum, and which payload survives
// follows the operand order the compiler picked for each copy of the
// interpolation; there both must be NaN. Every other lookup, NaN
// results included, must match bit for bit.
func checkLookups(t testing.TB, s *Set, az, el float64) {
	t.Helper()
	ix := s.Index()
	l := ix.Locate(az, el)
	ids := append(s.IDs(), absentID)
	nanDir := math.IsNaN(az) || math.IsNaN(el)
	for _, id := range ids {
		want := math.NaN()
		if p := s.Get(id); p != nil {
			want = p.At(az, el)
		}
		got := ix.Gain(l, id)
		payloadOnly := nanDir && math.IsNaN(got) && math.IsNaN(want) && infCorner(ix, l, id)
		if !sameBits(got, want) && !payloadOnly {
			t.Fatalf("Gain(%v, %v) sector %v = %v (%#x), Pattern.At = %v (%#x)",
				az, el, id, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	wantID, wantGain := scanBestSector(s, az, el)
	if id, g := s.BestSector(az, el); id != wantID || !sameBits(g, wantGain) {
		t.Fatalf("BestSector(%v, %v) = (%v, %v), scan loop = (%v, %v)", az, el, id, g, wantID, wantGain)
	}
}

func TestIndexMatchesPatternAt(t *testing.T) {
	grids := []struct {
		name string
		grid *geom.Grid
	}{
		{"campaign-91x9", campaignGrid(t)},
		{"irregular", mustNewGrid(t, []float64{-70, -61.5, -40, -3, 0, 0.25, 17, 50, 71}, []float64{0, 1, 5, 12.5, 30})},
		{"one-row", mustNewGrid(t, []float64{-90, -45, -10, 0, 10, 45, 90}, []float64{8})},
		{"one-column", mustNewGrid(t, []float64{15}, []float64{0, 4, 8, 16, 32})},
		{"one-point", mustNewGrid(t, []float64{15}, []float64{8})},
	}
	for _, g := range grids {
		for _, bad := range [][2]float64{{0, 0}, {0.35, 0}, {0, 0.08}, {0.2, 0.08}} {
			s := lookupTestSet(t, g.grid, bad[0], bad[1], 7)
			rng := rand.New(rand.NewSource(11))
			for _, d := range lookupDirections(g.grid, rng, 2000) {
				checkLookups(t, s, d[0], d[1])
			}
		}
	}
}

func TestIndexAllCornersMissing(t *testing.T) {
	g := mustGrid(t, -10, 10, 5, 0, 10, 5)
	s := NewSet()
	full := FromFunc(g, func(az, el float64) float64 { return az + el })
	holed := full.Clone()
	// Knock out the cell around (2.5, 2.5) entirely and one corner of
	// the cell around (7.5, 2.5), whose nearest valid corner then serves.
	for _, ae := range [][2]int{{2, 0}, {3, 0}, {2, 1}, {3, 1}, {4, 0}} {
		holed.Set(ae[0], ae[1], math.NaN())
	}
	if err := s.Put(1, holed); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, full); err != nil {
		t.Fatal(err)
	}
	ix := s.Index()
	if got := ix.Gain(ix.Locate(2.5, 2.5), 1); !math.IsNaN(got) {
		t.Fatalf("all four corners missing: Gain = %v, want NaN", got)
	}
	if got, want := ix.Gain(ix.Locate(8, 1), 1), holed.At(8, 1); !sameBits(got, want) || math.IsNaN(got) {
		t.Fatalf("one corner missing: Gain = %v, Pattern.At = %v", got, want)
	}
	for _, d := range lookupDirections(g, rand.New(rand.NewSource(3)), 500) {
		checkLookups(t, s, d[0], d[1])
	}
}

func TestBestSectorNoUsableSector(t *testing.T) {
	g := mustGrid(t, -10, 10, 5, 0, 10, 5)
	s := NewSet()
	if err := s.Put(1, New(g)); err != nil { // every sample missing
		t.Fatal(err)
	}
	if err := s.Put(sector.RX, FromFunc(g, func(az, el float64) float64 { return 3 })); err != nil {
		t.Fatal(err)
	}
	if id, gain := s.BestSector(0, 5); id != sector.RX || !math.IsNaN(gain) {
		t.Fatalf("BestSector = (%v, %v), want (RX, NaN): the RX pattern is not a TX candidate", id, gain)
	}
	empty := NewSet()
	ix := empty.Index()
	if g := ix.Gain(ix.Locate(0, 0), 1); !math.IsNaN(g) {
		t.Fatalf("empty set Gain = %v, want NaN", g)
	}
	if id, g := empty.BestSector(0, 0); id != sector.RX || !math.IsNaN(g) {
		t.Fatalf("empty set BestSector = (%v, %v), want (RX, NaN)", id, g)
	}
}

func TestSetPutInvalidatesIndex(t *testing.T) {
	s := buildTestSet(t)
	before := s.Index()
	if id, _ := s.BestSector(-45, 0); id != 1 {
		t.Fatalf("BestSector(-45, 0) = %v, want 1", id)
	}
	// Replacing a sector and adding a new one must both reach lookups.
	if err := s.Put(2, FromFunc(s.Grid(), func(az, el float64) float64 { return 50 })); err != nil {
		t.Fatal(err)
	}
	if s.Index() == before {
		t.Fatal("Put kept the stale index")
	}
	if id, g := s.BestSector(-45, 0); id != 2 || g != 50 {
		t.Fatalf("after replacing sector 2: BestSector = (%v, %v), want (2, 50)", id, g)
	}
	if err := s.Put(7, FromFunc(s.Grid(), func(az, el float64) float64 { return 60 })); err != nil {
		t.Fatal(err)
	}
	if id, g := s.BestSector(-45, 0); id != 7 || g != 60 {
		t.Fatalf("after adding sector 7: BestSector = (%v, %v), want (7, 60)", id, g)
	}
	if ix := s.Index(); ix.Gain(ix.Locate(0, 0), 7) != 60 {
		t.Fatalf("Gain after Put = %v, want 60", ix.Gain(ix.Locate(0, 0), 7))
	}
}

// TestSetIndexConcurrentFirstUse races the index's first build: every
// caller must end up with the one memoized index. Run it under -race.
func TestSetIndexConcurrentFirstUse(t *testing.T) {
	s := lookupTestSet(t, campaignGrid(t), 0.1, 0, 5)
	got := make([]*Index, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.BestSector(float64(10*i-40), 9)
			got[i] = s.Index()
		}()
	}
	wg.Wait()
	for i, ix := range got {
		if ix != got[0] {
			t.Fatalf("goroutine %d saw a different index than goroutine 0", i)
		}
	}
}

// TestBestSectorZeroAlloc guards Eq. 4's steady state: once the index is
// compiled, a lookup allocates nothing (the sort-and-scan loop allocated
// a sorted TXIDs slice per call).
func TestBestSectorZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	s := lookupTestSet(t, campaignGrid(t), 0, 0, 1)
	s.BestSector(0, 0)
	var id sector.ID
	allocs := testing.AllocsPerRun(100, func() {
		id, _ = s.BestSector(12.3, 7.7)
	})
	if allocs != 0 {
		t.Fatalf("BestSector allocates %.1f times per call, want 0", allocs)
	}
	if id == sector.RX {
		t.Fatal("BestSector found no sector")
	}
}

// FuzzSetLookup feeds arbitrary (az, el) bit patterns to the index: no
// input may panic, and every lookup must match Pattern.At bit for bit.
func FuzzSetLookup(f *testing.F) {
	s := lookupTestSet(f, mustNewGrid(f, []float64{-60, -30, -7.5, 0, 12, 45, 60}, []float64{0, 4, 8, 16}), 0.3, 0.05, 9)
	for _, d := range [][2]float64{
		{0, 0}, {12, 8}, {60, 16}, {-60, 0}, {59.999, 15.999}, {-1e9, 1e9},
		{math.NaN(), 4}, {math.Inf(1), math.Inf(-1)}, {math.Copysign(0, -1), 2.5},
	} {
		f.Add(math.Float64bits(d[0]), math.Float64bits(d[1]))
	}
	f.Fuzz(func(t *testing.T, azBits, elBits uint64) {
		checkLookups(t, s, math.Float64frombits(azBits), math.Float64frombits(elBits))
	})
}

// benchLookups returns the full-fidelity campaign set and a cycle of
// random in-coverage directions for the Eq. 4 benchmarks.
func benchLookups(b *testing.B) (*Set, [][2]float64) {
	s := lookupTestSet(b, campaignGrid(b), 0, 0, 1)
	rng := rand.New(rand.NewSource(2))
	dirs := make([][2]float64, 1024)
	for i := range dirs {
		dirs[i] = [2]float64{-90 + 180*rng.Float64(), 32 * rng.Float64()}
	}
	return s, dirs
}

var benchSink float64

// BenchmarkBestSector_Index times Eq. 4 through Set.BestSector: one
// bracketing of the direction on the compiled index, then a scan of the
// 34 TX sectors. BenchmarkBestSector_PatternAt is the per-pattern loop it
// replaced, Pattern.At per TX sector (two binary searches each), at the
// same directions. CI gates _Index >= 5x _PatternAt in the same run.
func BenchmarkBestSector_Index(b *testing.B) {
	s, dirs := benchLookups(b)
	s.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dirs[i%len(dirs)]
		best, bestGain := s.BestSector(d[0], d[1])
		benchSink += bestGain + float64(best)
	}
}

func BenchmarkBestSector_PatternAt(b *testing.B) {
	s, dirs := benchLookups(b)
	ids := s.TXIDs()
	tx := make([]*Pattern, len(ids))
	for c, id := range ids {
		tx[c] = s.Get(id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dirs[i%len(dirs)]
		best, bestGain := sector.RX, math.Inf(-1)
		for c, p := range tx {
			if g := p.At(d[0], d[1]); g > bestGain {
				best, bestGain = ids[c], g
			}
		}
		benchSink += bestGain + float64(best)
	}
}

// TestIndexCandidatesPerCell bounds the Eq. 4 candidate lists on the
// campaign grid: a margin that lists every sector in every cell would
// keep BestSector exact and lose its speed, which only this shows. The
// smooth test beams leave a few sectors per cell; a set whose every
// sample is missing lists every sector.
func TestIndexCandidatesPerCell(t *testing.T) {
	g := campaignGrid(t)
	const maxMean = 4
	for _, seed := range []int64{1, 5, 9} {
		ix := lookupTestSet(t, g, 0, 0, seed).Index()
		cells := (g.NumAz() - 1) * (g.NumEl() - 1)
		mean := float64(len(ix.cand)) / float64(cells)
		t.Logf("seed %d: %.2f of %d sectors per cell", seed, mean, ix.numTX)
		if mean > maxMean || mean < 1 {
			t.Fatalf("seed %d: %.2f candidates per cell, want 1 to %v", seed, mean, maxMean)
		}
	}
	empty := NewSet()
	if err := empty.Put(1, New(g)); err != nil {
		t.Fatal(err)
	}
	if err := empty.Put(2, New(g)); err != nil {
		t.Fatal(err)
	}
	ix := empty.Index()
	if want := 2 * (g.NumAz() - 1) * (g.NumEl() - 1); len(ix.cand) != want {
		t.Fatalf("all-missing set lists %d candidates, want every sector in every cell (%d)", len(ix.cand), want)
	}
}
