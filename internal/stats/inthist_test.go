package stats

import (
	"slices"
	"testing"
)

// TestIntHistObserveNMatchesObserve is the property behind lazy bulk
// accrual: for random (v, k) sequences — values in every bucket,
// including the overflow bucket, and repeat counts including zero —
// ObserveN(v, k) leaves the histogram exactly as k calls to Observe(v)
// would, on counts, sum, max, count and quantiles.
func TestIntHistObserveNMatchesObserve(t *testing.T) {
	bounds := []int64{0, 250, 500, 1000, 2000, 3000, 5000, 10000, 20000}
	rng := NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		bulk, loop := NewIntHist(bounds), NewIntHist(bounds)
		for step, n := 0, 1+rng.Intn(40); step < n; step++ {
			v := int64(rng.Intn(30000)) // past 20000 lands in the overflow bucket
			if rng.Bool(0.1) {
				v = bounds[rng.Intn(len(bounds))] // exactly on a bound
			}
			k := int64(rng.Intn(6))
			bulk.ObserveN(v, k)
			for i := int64(0); i < k; i++ {
				loop.Observe(v)
			}
		}
		if !slices.Equal(bulk.Counts(), loop.Counts()) {
			t.Fatalf("trial %d: counts %v, want %v", trial, bulk.Counts(), loop.Counts())
		}
		if bulk.Sum() != loop.Sum() || bulk.Max() != loop.Max() || bulk.Count() != loop.Count() || bulk.Mean() != loop.Mean() {
			t.Fatalf("trial %d: sum/max/count/mean %d/%d/%d/%d, want %d/%d/%d/%d", trial,
				bulk.Sum(), bulk.Max(), bulk.Count(), bulk.Mean(), loop.Sum(), loop.Max(), loop.Count(), loop.Mean())
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			if got, want := bulk.Quantile(q), loop.Quantile(q); got != want {
				t.Fatalf("trial %d: quantile %g = %d, want %d", trial, q, got, want)
			}
		}
	}
}

// TestIntHistObserveNZero checks that a zero repeat count records
// nothing — in particular it must not raise the running max.
func TestIntHistObserveNZero(t *testing.T) {
	h := NewIntHist([]int64{10, 100})
	h.Observe(5)
	h.ObserveN(1_000_000, 0)
	h.ObserveN(50, -3)
	if h.Count() != 1 || h.Sum() != 5 || h.Max() != 5 || !slices.Equal(h.Counts(), []int64{1, 0, 0}) {
		t.Fatalf("ObserveN with k <= 0 changed the histogram: count %d sum %d max %d counts %v",
			h.Count(), h.Sum(), h.Max(), h.Counts())
	}
}
