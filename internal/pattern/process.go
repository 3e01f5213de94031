package pattern

import (
	"errors"
	"math"

	"talon/internal/stats"
)

// Average combines repeated measurement runs of the same sector into one
// pattern by averaging the valid samples per grid point. All patterns must
// share the same grid. Points missing in all runs stay missing.
func Average(runs []*Pattern) (*Pattern, error) {
	if len(runs) == 0 {
		return nil, errors.New("pattern: Average of zero runs")
	}
	g := runs[0].grid
	for _, r := range runs[1:] {
		if !r.grid.Equal(g) {
			return nil, errors.New("pattern: Average over mismatched grids")
		}
	}
	out := New(g)
	for e := 0; e < g.NumEl(); e++ {
		for a := 0; a < g.NumAz(); a++ {
			sum, n := 0.0, 0
			for _, r := range runs {
				if v := r.gain[e][a]; !math.IsNaN(v) {
					sum += v
					n++
				}
			}
			if n > 0 {
				out.gain[e][a] = sum / float64(n)
			}
		}
	}
	return out, nil
}

// RemoveOutliers marks samples as missing when they deviate from the median
// of their azimuth neighbourhood (window samples to each side, within the
// same elevation row) by more than thresh dB. This mirrors the paper's
// "omitted obvious outliers" step. It returns the number of samples
// removed.
//
// Each row is judged on a copy of its original samples, so a removal does
// not change its neighbours' medians. The copy and the neighbourhood share
// one buffer, on the stack for rows of up to outlierStackLen samples less
// twice the window: the campaign's pass allocates nothing.
func (p *Pattern) RemoveOutliers(window int, thresh float64) int {
	if window < 1 {
		window = 1
	}
	var stack [outlierStackLen]float64
	buf := stack[:]
	if n := p.grid.NumAz() + 2*window; n > len(buf) {
		buf = make([]float64, n)
	}
	removed := 0
	for _, row := range p.gain {
		orig := buf[:len(row)]
		copy(orig, row)
		neigh := buf[len(row):len(row)]
		for a, v := range orig {
			if math.IsNaN(v) {
				continue
			}
			lo, hi := max(a-window, 0), min(a+window, len(orig)-1)
			neigh = neigh[:0]
			for i := lo; i <= hi; i++ {
				if i != a && !math.IsNaN(orig[i]) {
					neigh = insertSorted(neigh, orig[i])
				}
			}
			if len(neigh) == 0 {
				continue
			}
			if math.Abs(v-medianSorted(neigh)) > thresh {
				row[a] = math.NaN()
				removed++
			}
		}
	}
	return removed
}

// outlierStackLen is the length of RemoveOutliers' stack buffer.
const outlierStackLen = 512

// insertSorted appends x to the ascending, NaN-free v and moves it into
// place, within v's capacity.
func insertSorted(v []float64, x float64) []float64 {
	v = append(v, x)
	i := len(v) - 1
	for ; i > 0 && v[i-1] > x; i-- {
		v[i] = v[i-1]
	}
	v[i] = x
	return v
}

// medianSorted is stats.Median of the ascending, NaN-free, non-empty v,
// with stats.Quantile's arithmetic so the result is the same to the bit.
func medianSorted(v []float64) float64 {
	pos := 0.5 * float64(len(v)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i]*(1-frac) + v[i+1]*frac
}

// FillGaps linearly interpolates missing samples along each azimuth row,
// mirroring the paper's "interpolated over gaps where we could not capture
// any frames". Gaps at row edges are extended from the nearest valid
// sample. Rows without any valid sample are filled with floor. It returns
// the number of samples filled.
func (p *Pattern) FillGaps(floor float64) int {
	filled := 0
	for _, row := range p.gain {
		filled += fillRow(row, floor)
	}
	return filled
}

func fillRow(row []float64, floor float64) int {
	n := len(row)
	valid := make([]int, 0, n)
	for i, v := range row {
		if !math.IsNaN(v) {
			valid = append(valid, i)
		}
	}
	if len(valid) == 0 {
		for i := range row {
			row[i] = floor
		}
		return n
	}
	filled := 0
	// Leading edge.
	for i := 0; i < valid[0]; i++ {
		row[i] = row[valid[0]]
		filled++
	}
	// Interior gaps.
	for k := 0; k+1 < len(valid); k++ {
		lo, hi := valid[k], valid[k+1]
		for i := lo + 1; i < hi; i++ {
			t := float64(i-lo) / float64(hi-lo)
			row[i] = stats.Lerp(row[lo], row[hi], t)
			filled++
		}
	}
	// Trailing edge.
	last := valid[len(valid)-1]
	for i := last + 1; i < n; i++ {
		row[i] = row[last]
		filled++
	}
	return filled
}
