package stats

import "math"

// IntHist is a fixed-bound int64 histogram with an implicit +Inf
// overflow bucket. All state is integer arithmetic — counts, sums and
// the running max — so partial histograms filled by parallel workers
// can be merged in any order and still produce bit-identical summaries
// for a fixed input set. It backs the deterministic scorecards of the
// fleet simulator and the out-of-core campaign pipeline.
//
// The zero value is unusable; construct with NewIntHist.
type IntHist struct {
	bounds []int64
	counts []int64
	sum    int64
	max    int64
	n      int64
}

// NewIntHist returns a histogram over the given ascending bucket upper
// bounds plus an implicit overflow bucket. The bounds slice is retained,
// not copied.
func NewIntHist(bounds []int64) IntHist {
	return IntHist{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value.
func (h *IntHist) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records v k times, exactly as k calls to Observe(v) would.
// k <= 0 is a no-op.
func (h *IntHist) ObserveN(v, k int64) {
	if k <= 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i] += k
	h.sum += v * k
	h.n += k
	if v > h.max {
		h.max = v
	}
}

// Reset zeroes all buckets and running aggregates.
func (h *IntHist) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.sum, h.max, h.n = 0, 0, 0
}

// Merge folds o into h. The two histograms must share bounds.
func (h *IntHist) Merge(o *IntHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// observation (the exact max for the overflow bucket). Bucket-bound
// quantiles are coarse but exactly reproducible.
func (h *IntHist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i < len(h.bounds) && h.bounds[i] < h.max {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// Mean returns the truncated integer mean (0 when empty).
func (h *IntHist) Mean() int64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / h.n
}

// Count returns the number of observations.
func (h *IntHist) Count() int64 { return h.n }

// Max returns the largest observed value (0 when empty).
func (h *IntHist) Max() int64 { return h.max }

// Sum returns the sum of all observations.
func (h *IntHist) Sum() int64 { return h.sum }

// Counts returns a copy of the per-bucket counts, overflow bucket last.
func (h *IntHist) Counts() []int64 {
	out := make([]int64, len(h.counts))
	copy(out, h.counts)
	return out
}

// lossBoundsMilli are the SNR-loss histogram bounds in milli-dB.
var lossBoundsMilli = []int64{0, 250, 500, 1000, 2000, 3000, 5000, 10000, 20000}

// NewLossHist returns a histogram over the SNR-loss bounds every
// deterministic scorecard shares; feed it MilliDB values.
func NewLossHist() IntHist { return NewIntHist(lossBoundsMilli) }

// MilliDB converts an SNR loss in dB to milli-dB fixed point, clamping
// NaN and negatives to zero (a selection can beat the best sector only by
// noise; that counts as no loss) and capping at 1000 dB.
func MilliDB(db float64) int64 {
	if math.IsNaN(db) || db < 0 {
		return 0
	}
	if db > 1000 {
		db = 1000
	}
	return int64(math.Round(db * 1000))
}

// LossSummary reports an SNR-loss distribution in milli-dB fixed point.
type LossSummary struct {
	Count    int64   `json:"count"`
	P50Milli int64   `json:"p50_millidb"`
	P90Milli int64   `json:"p90_millidb"`
	P99Milli int64   `json:"p99_millidb"`
	MaxMilli int64   `json:"max_millidb"`
	MeanDB   float64 `json:"mean_db"`
	Buckets  []int64 `json:"buckets"`
}

// SummarizeLoss digests a loss histogram built by NewLossHist.
func SummarizeLoss(h *IntHist) LossSummary {
	return LossSummary{
		Count:    h.Count(),
		P50Milli: h.Quantile(0.50),
		P90Milli: h.Quantile(0.90),
		P99Milli: h.Quantile(0.99),
		MaxMilli: h.Max(),
		MeanDB:   float64(h.Mean()) / 1000,
		Buckets:  h.Counts(),
	}
}
