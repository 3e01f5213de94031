package pattern

import (
	"math"
	"testing"

	"talon/internal/stats"
)

func TestAverage(t *testing.T) {
	g := mustGrid(t, 0, 2, 1, 0, 0, 1)
	a := FromFunc(g, func(az, el float64) float64 { return 1 })
	b := FromFunc(g, func(az, el float64) float64 { return 3 })
	b.Set(1, 0, math.NaN()) // point missing in one run
	avg, err := Average([]*Pattern{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := avg.AtIndex(0, 0); got != 2 {
		t.Fatalf("avg[0] = %v, want 2", got)
	}
	if got := avg.AtIndex(1, 0); got != 1 {
		t.Fatalf("avg over single valid run = %v, want 1", got)
	}
}

func TestAverageErrors(t *testing.T) {
	if _, err := Average(nil); err == nil {
		t.Fatal("Average(nil) succeeded")
	}
	g1 := mustGrid(t, 0, 2, 1, 0, 0, 1)
	g2 := mustGrid(t, 0, 3, 1, 0, 0, 1)
	if _, err := Average([]*Pattern{New(g1), New(g2)}); err == nil {
		t.Fatal("Average over mismatched grids succeeded")
	}
}

func TestAverageAllMissingStaysMissing(t *testing.T) {
	g := mustGrid(t, 0, 1, 1, 0, 0, 1)
	avg, err := Average([]*Pattern{New(g), New(g)})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(avg.AtIndex(0, 0)) {
		t.Fatal("all-missing point became valid")
	}
}

func TestRemoveOutliers(t *testing.T) {
	g := mustGrid(t, 0, 20, 1, 0, 0, 1)
	p := FromFunc(g, func(az, el float64) float64 { return 5 })
	p.Set(10, 0, 25) // an obvious spike
	removed := p.RemoveOutliers(3, 6)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if !math.IsNaN(p.AtIndex(10, 0)) {
		t.Fatal("outlier not marked missing")
	}
	// Smooth data must survive.
	q := FromFunc(g, func(az, el float64) float64 { return az / 4 })
	if removed := q.RemoveOutliers(3, 6); removed != 0 {
		t.Fatalf("smooth data lost %d samples", removed)
	}
}

func TestFillGaps(t *testing.T) {
	g := mustGrid(t, 0, 4, 1, 0, 0, 1)
	p := New(g)
	p.Set(1, 0, 10)
	p.Set(3, 0, 20)
	filled := p.FillGaps(-7)
	if filled != 3 {
		t.Fatalf("filled = %d, want 3", filled)
	}
	if got := p.AtIndex(0, 0); got != 10 {
		t.Fatalf("leading edge = %v, want 10", got)
	}
	if got := p.AtIndex(2, 0); got != 15 {
		t.Fatalf("interior = %v, want 15", got)
	}
	if got := p.AtIndex(4, 0); got != 20 {
		t.Fatalf("trailing edge = %v, want 20", got)
	}
	if p.Missing() != 0 {
		t.Fatalf("still missing %d", p.Missing())
	}
}

func TestFillGapsEmptyRow(t *testing.T) {
	g := mustGrid(t, 0, 2, 1, 0, 1, 1)
	p := New(g)
	p.Set(0, 1, 3) // second row has data, first does not
	p.FillGaps(-7)
	if got := p.AtIndex(1, 0); got != -7 {
		t.Fatalf("empty row filled with %v, want floor -7", got)
	}
	if got := p.AtIndex(2, 1); got != 3 {
		t.Fatalf("valid row edge = %v, want 3", got)
	}
}

func TestCampaignPipeline(t *testing.T) {
	// Outlier removal then gap filling must restore a smooth pattern.
	g := mustGrid(t, -90, 90, 1.8, 0, 0, 1)
	truth := func(az, el float64) float64 { return 12 * math.Exp(-az*az/800) }
	p := FromFunc(g, truth)
	p.Set(30, 0, 80)         // spike
	p.Set(60, 0, math.NaN()) // miss
	p.Set(61, 0, math.NaN()) // miss
	if p.RemoveOutliers(4, 8) != 1 {
		t.Fatal("spike not removed")
	}
	p.FillGaps(-7)
	if p.Missing() != 0 {
		t.Fatal("gaps remain")
	}
	for a, az := range g.Az() {
		if diff := math.Abs(p.AtIndex(a, 0) - truth(az, 0)); diff > 1.5 {
			t.Fatalf("restored pattern off by %v dB at az %v", diff, az)
		}
	}
}

// removeOutliersRef is the former RemoveOutliers body, kept as the
// oracle: a fresh row copy, a neighbour slice per sample and
// stats.Median's sorted copy.
func removeOutliersRef(p *Pattern, window int, thresh float64) int {
	if window < 1 {
		window = 1
	}
	removed := 0
	for e, row := range p.gain {
		orig := append([]float64(nil), row...)
		for a, v := range orig {
			if math.IsNaN(v) {
				continue
			}
			lo, hi := a-window, a+window
			if lo < 0 {
				lo = 0
			}
			if hi >= len(orig) {
				hi = len(orig) - 1
			}
			neigh := make([]float64, 0, hi-lo)
			for i := lo; i <= hi; i++ {
				if i != a && !math.IsNaN(orig[i]) {
					neigh = append(neigh, orig[i])
				}
			}
			if len(neigh) == 0 {
				continue
			}
			if math.Abs(v-stats.Median(neigh)) > thresh {
				p.gain[e][a] = math.NaN()
				removed++
			}
		}
	}
	return removed
}

// TestRemoveOutliersMatchesReference checks the allocation-free pass
// against the former body bit for bit, on random rows with missing
// samples, repeated values and signed zeros, at windows 1–3.
func TestRemoveOutliersMatchesReference(t *testing.T) {
	rng := stats.NewRNG(7)
	g := mustGrid(t, -90, 90, 2, 0, 32, 4)
	for trial := 0; trial < 200; trial++ {
		got := FromFunc(g, func(az, el float64) float64 {
			switch u := rng.Float64(); {
			case u < 0.15:
				return math.NaN()
			case u < 0.2:
				return math.Copysign(0, rng.Float64()-0.5)
			case u < 0.3:
				return float64(rng.Intn(4)) // repeated values
			case u < 0.4:
				return rng.Norm(0, 20) // spikes
			}
			return rng.Norm(0, 3)
		})
		want := got.Clone()
		window := 1 + trial%3
		thresh := rng.Uniform(0.5, 8)
		n, wantN := got.RemoveOutliers(window, thresh), removeOutliersRef(want, window, thresh)
		if n != wantN {
			t.Fatalf("trial %d window %d: removed %d, reference %d", trial, window, n, wantN)
		}
		for e := range got.gain {
			for a := range got.gain[e] {
				if x, y := got.gain[e][a], want.gain[e][a]; math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("trial %d window %d at (%d, %d): %v, reference %v", trial, window, a, e, x, y)
				}
			}
		}
	}
}

// TestRemoveOutliersAllocs gates the outlier pass over the platform's
// campaign grid at zero allocations.
func TestRemoveOutliersAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	g := mustGrid(t, -90, 90, 2, 0, 32, 4)
	rng := stats.NewRNG(3)
	p := FromFunc(g, func(az, el float64) float64 { return rng.Norm(0, 4) })
	allocs := testing.AllocsPerRun(20, func() {
		p.RemoveOutliers(1, 6)
	})
	if allocs != 0 {
		t.Errorf("RemoveOutliers allocates %v times per pass, want 0", allocs)
	}
}
