package pattern

import (
	"math"

	"talon/internal/geom"
	"talon/internal/sector"
)

// Index is a Set compiled for direction lookups: every sector's dB
// samples interleaved per grid point, so one bracketing of (az, el)
// serves any number of sectors. Eq. 4, probe synthesis and ground-truth
// scoring all ask "what does each sector see toward this direction"; with
// per-sector Pattern.At they re-run the same two binary searches once per
// sector.
//
// Every lookup is bit-identical to Pattern.At on the sector's pattern: the
// same geom.Bracket results, the same bilinear expression order and the
// same nearest-valid fallback around missing samples. An Index is
// immutable and safe for concurrent use; Set.Index builds it once and
// Set.Put discards it.
type Index struct {
	az, el []float64
	// azScale and elScale map an angle offset from the first sample to a
	// sample index on a uniform axis: (n-1) / span.
	azScale, elScale float64
	// gain[(e*len(az)+a)*len(ids)+c] is the sample of sector ids[c] at
	// grid indices (a, e). The transmit sectors take columns 0..numTX-1
	// in ascending ID order (the order of Set.TXIDs); the RX
	// pseudo-sector, when present, takes the last column.
	gain  []float64
	ids   []sector.ID
	numTX int
	// col maps a sector ID to its column plus one; 0 means absent.
	col [256]uint16
	// cand[candAt[k]:candAt[k+1]] are, in ascending order, the transmit
	// columns that can win Eq. 4 somewhere in grid cell k: the cell
	// whose lowest corner is grid point k = e*len(az)+a (compileCandidates).
	cand   []uint8
	candAt []int32
}

// Loc is a direction located on an Index's grid: its grid cell, the
// offsets of the cell's four grid points and the interpolation
// parameters. A Loc is only meaningful to the Index that produced it.
type Loc struct {
	o00, o01, o10, o11 int
	cell               int
	at, et             float64
}

// compileIndex lays out s's patterns for an Index.
func compileIndex(s *Set) *Index {
	ix := &Index{ids: s.TXIDs()}
	ix.numTX = len(ix.ids)
	if s.patterns[sector.RX] != nil {
		ix.ids = append(ix.ids, sector.RX)
	}
	grid := s.Grid()
	if grid == nil {
		ix.candAt = []int32{0, 0}
		return ix
	}
	ix.az, ix.el = grid.Az(), grid.El()
	ix.azScale, ix.elScale = axisScale(ix.az), axisScale(ix.el)
	numAz, stride := len(ix.az), len(ix.ids)
	ix.gain = make([]float64, len(ix.el)*numAz*stride)
	for c, id := range ix.ids {
		ix.col[id] = uint16(c + 1)
		for e, row := range s.patterns[id].gain {
			for a, v := range row {
				ix.gain[(e*numAz+a)*stride+c] = v
			}
		}
	}
	ix.compileCandidates()
	return ix
}

// candMargin is the relative margin of the candidate lists: bilinear's
// result differs from the exact convex combination of a cell's corners
// by a few ulps of the largest corner, far below this share of it.
const candMargin = 1e-9

// compileCandidates lists, for every grid cell Locate can return, the
// transmit columns that can win Eq. 4 at a direction inside it. At
// interpolation parameters in [0, 1] (Locate's, clamps included) a
// column whose four corners are finite interpolates to a gain between
// its smallest and its largest corner, up to rounding. The cell's floor
// is the largest smallest corner among such columns, lowered by the
// margin m (candMargin times the cell's largest finite |corner|): that
// column's gain, and so the winner's, is at least the floor. A column
// is listed when one of its corners is NaN or infinite (nearestValid or
// the NaN of an infinite corner decides its gain), or when its largest
// corner plus m reaches the floor; any other column's gain is strictly
// below the winner's, so it can neither win nor tie, and BestSector
// scanning the list in ascending order returns what the scan of every
// column returns. A NaN direction interpolates every column to NaN,
// whatever its cell.
func (ix *Index) compileCandidates() {
	numAz, numEl := len(ix.az), len(ix.el)
	ix.candAt = make([]int32, numAz*numEl+1)
	g := ix.gain
	top := make([]float64, ix.numTX) // a column's largest corner, +Inf when one is not finite
	for e := 0; e < numEl; e++ {
		for a := 0; a < numAz; a++ {
			k := e*numAz + a
			ix.candAt[k] = int32(len(ix.cand))
			if (a == numAz-1 && numAz > 1) || (e == numEl-1 && numEl > 1) {
				continue // no Loc has this lowest corner
			}
			l := ix.cellLoc(a, e)
			scale, floor := 0.0, math.Inf(-1)
			for c := range top {
				v00, v01, v10, v11 := g[l.o00+c], g[l.o01+c], g[l.o10+c], g[l.o11+c]
				lo, hi := min(v00, v01, v10, v11), max(v00, v01, v10, v11)
				if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
					top[c] = math.Inf(1)
					continue
				}
				top[c] = hi
				floor = max(floor, lo)
				scale = max(scale, math.Abs(lo), math.Abs(hi))
			}
			m := candMargin * scale
			floor -= m
			for c, hi := range top {
				if hi+m >= floor {
					ix.cand = append(ix.cand, uint8(c))
				}
			}
		}
	}
	ix.candAt[numAz*numEl] = int32(len(ix.cand))
}

// cellLoc is the Loc of the cell whose lowest corner is grid point
// (a, e), without interpolation parameters.
func (ix *Index) cellLoc(a, e int) Loc {
	a2, e2 := a, e
	if len(ix.az) > 1 {
		a2 = a + 1
	}
	if len(ix.el) > 1 {
		e2 = e + 1
	}
	numAz, s := len(ix.az), len(ix.ids)
	return Loc{
		o00: (e*numAz + a) * s, o01: (e*numAz + a2) * s,
		o10: (e2*numAz + a) * s, o11: (e2*numAz + a2) * s,
		cell: e*numAz + a,
	}
}

func axisScale(axis []float64) float64 {
	if len(axis) < 2 {
		return 0
	}
	return float64(len(axis)-1) / (axis[len(axis)-1] - axis[0])
}

// Locate brackets (az, el) degrees on the grid, once per axis, with the
// results of geom.Bracket, as Pattern.At does: coordinates outside the
// grid clamp to its edges.
//
//talon:noalloc
func (ix *Index) Locate(az, el float64) Loc {
	if len(ix.ids) == 0 {
		return Loc{}
	}
	ai, at := bracket(ix.az, ix.azScale, az)
	ei, et := bracket(ix.el, ix.elScale, el)
	l := ix.cellLoc(ai, ei)
	l.at, l.et = at, et
	return l
}

// bracket returns geom.Bracket(axis, v) without its binary search, whose
// data-dependent branches took a third of a Set.BestSector. Inside the
// axis, Bracket's lo is the unique index with axis[lo] <= v < axis[lo+1]
// (the axis is strictly ascending); a guess from the mean sample spacing
// is walked to it, which on a uniform axis takes at most one step. t is
// Bracket's expression. Clamps and NaN take Bracket itself.
//
//talon:noalloc
func bracket(axis []float64, scale, v float64) (int, float64) {
	n := len(axis)
	if n < 2 || !(v > axis[0] && v < axis[n-1]) {
		return geom.Bracket(axis, v)
	}
	lo := min(int((v-axis[0])*scale), n-2)
	for axis[lo] > v {
		lo--
	}
	for axis[lo+1] <= v {
		lo++
	}
	return lo, (v - axis[lo]) / (axis[lo+1] - axis[lo])
}

// Gain returns sector id's gain at l, bit-identical to
// Set.Get(id).At(az, el) for the direction l was located from; NaN when
// the set holds no pattern for id.
//
//talon:noalloc
func (ix *Index) Gain(l Loc, id sector.ID) float64 {
	c := int(ix.col[id]) - 1
	if c < 0 {
		return math.NaN()
	}
	g := ix.gain
	v00, v01, v10, v11 := g[l.o00+c], g[l.o01+c], g[l.o10+c], g[l.o11+c]
	v := bilinear(l.at, l.et, v00, v01, v10, v11)
	if v != v && hasNaN4(v00, v01, v10, v11) {
		return nearestValid(l.at, l.et, v00, v01, v10, v11)
	}
	return v
}

// BestSector returns the transmit sector with the highest gain at l, and
// that gain: Eq. 4 of the paper. Sectors are scanned in ascending ID order
// and only a strictly greater gain replaces the running best, so ties go
// to the lowest ID. It returns (sector.RX, NaN) when no transmit sector has
// a valid gain there. The scan reads only the cell's candidate list
// (compileCandidates): every sector left off it has a gain strictly below
// the winner's, so the result is the scan of every sector's.
//
//talon:noalloc
func (ix *Index) BestSector(l Loc) (sector.ID, float64) {
	best, bestGain := sector.RX, math.Inf(-1)
	found := false
	g := ix.gain
	for _, c := range ix.cand[ix.candAt[l.cell]:ix.candAt[l.cell+1]] {
		v00, v01, v10, v11 := g[l.o00+int(c)], g[l.o01+int(c)], g[l.o10+int(c)], g[l.o11+int(c)]
		v := bilinear(l.at, l.et, v00, v01, v10, v11)
		if v != v && hasNaN4(v00, v01, v10, v11) {
			v = nearestValid(l.at, l.et, v00, v01, v10, v11)
		}
		if v > bestGain { // false for NaN
			best, bestGain, found = ix.ids[c], v, true
		}
	}
	if !found {
		return sector.RX, math.NaN()
	}
	return best, bestGain
}

// bilinear is Pattern.At's interpolation, in its expression order. A NaN
// corner makes the result NaN, which is how the lookups above detect
// Pattern.At's nearest-valid case without testing the corners first.
func bilinear(at, et, v00, v01, v10, v11 float64) float64 {
	lo := v00*(1-at) + v01*at
	hi := v10*(1-at) + v11*at
	return lo*(1-et) + hi*et
}

func hasNaN4(v00, v01, v10, v11 float64) bool {
	return v00 != v00 || v01 != v01 || v10 != v10 || v11 != v11
}
