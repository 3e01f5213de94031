package fleet

import (
	"time"

	"talon/internal/stats"
)

// All scorecard accumulation is integer arithmetic: histogram bucket
// counts, nanosecond sums and milli-dB fixed-point sums in int64. Sums
// of int64s are associative, so per-shard partial tallies can be merged
// in any order and the scorecard still comes out byte-identical for a
// fixed seed at any worker count.

// latencyBoundsNs are the virtual selection-latency histogram bounds.
// Selections complete at epoch boundaries, so the interesting structure
// is epoch multiples plus the sub-millisecond training airtime.
var latencyBoundsNs = []int64{
	int64(500 * time.Microsecond),
	int64(1 * time.Millisecond),
	int64(2 * time.Millisecond),
	int64(5 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(20 * time.Millisecond),
	int64(30 * time.Millisecond),
	int64(40 * time.Millisecond),
	int64(50 * time.Millisecond),
	int64(60 * time.Millisecond),
	int64(70 * time.Millisecond),
	int64(80 * time.Millisecond),
	int64(90 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(110 * time.Millisecond),
	int64(125 * time.Millisecond),
	int64(150 * time.Millisecond),
	int64(200 * time.Millisecond),
	int64(300 * time.Millisecond),
	int64(500 * time.Millisecond),
	int64(1 * time.Second),
	int64(2 * time.Second),
	int64(5 * time.Second),
	int64(10 * time.Second),
}

// tally is the deterministic scorecard accumulator. The Manager keeps
// one under stepMu; each Step's shard workers fill per-shard partials
// that are merged in.
type tally struct {
	latency   stats.IntHist // virtual selection latency, ns
	selLoss   stats.IntHist // SNR loss at selection vs ground-truth best, milli-dB
	trackLoss stats.IntHist // sampled SNR loss while tracking, milli-dB

	trainings     int64 // rounds served through the batch funnel
	retrains      int64 // non-first rounds among them
	failures      int64 // rounds whose batched selection errored
	fallbacks     int64 // failed rounds rescued by the probed argmax
	degrades      int64 // tracked links pushed to degraded by the scan
	trackedEpochs int64 // (station, epoch) pairs spent tracking
	skipped       int64 // pending rounds whose station departed first
}

func (t *tally) init() {
	t.latency = stats.NewIntHist(latencyBoundsNs)
	t.selLoss = stats.NewLossHist()
	t.trackLoss = stats.NewLossHist()
}

func (t *tally) reset() {
	t.latency.Reset()
	t.selLoss.Reset()
	t.trackLoss.Reset()
	t.trainings, t.retrains, t.failures, t.fallbacks = 0, 0, 0, 0
	t.degrades, t.trackedEpochs, t.skipped = 0, 0, 0
}

func (t *tally) merge(o *tally) {
	t.latency.Merge(&o.latency)
	t.selLoss.Merge(&o.selLoss)
	t.trackLoss.Merge(&o.trackLoss)
	t.trainings += o.trainings
	t.retrains += o.retrains
	t.failures += o.failures
	t.fallbacks += o.fallbacks
	t.degrades += o.degrades
	t.trackedEpochs += o.trackedEpochs
	t.skipped += o.skipped
}

// LatencySummary reports the virtual selection-latency distribution.
type LatencySummary struct {
	Count  int64 `json:"count"`
	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
	MeanNs int64 `json:"mean_ns"`
}

func latencySummary(h *stats.IntHist) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		P50Ns:  h.Quantile(0.50),
		P90Ns:  h.Quantile(0.90),
		P99Ns:  h.Quantile(0.99),
		MaxNs:  h.Max(),
		MeanNs: h.Mean(),
	}
}

// BenchEntry mirrors cmd/benchdiff's baseline schema so a scorecard file
// can be handed straight to `benchdiff -against`.
type BenchEntry struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Scorecard is cmd/fleetsim's deterministic result: virtual-time service
// quality of the fleet under a seeded workload. For a fixed SimConfig it
// is byte-identical across runs, machines and worker counts; wall-clock
// throughput is deliberately excluded (fleetsim reports that separately
// in Go benchmark format).
type Scorecard struct {
	Config SimConfig `json:"config"`

	StationsFinal int   `json:"stations_final"`
	Epochs        int64 `json:"epochs"`
	VirtualNs     int64 `json:"virtual_ns"`

	Trainings     int64 `json:"trainings"`
	Retrains      int64 `json:"retrains"`
	Failures      int64 `json:"select_failures"`
	Fallbacks     int64 `json:"fallbacks"`
	Degrades      int64 `json:"degrades"`
	TrackedEpochs int64 `json:"tracked_epochs"`
	Skipped       int64 `json:"skipped_rounds"`
	QueueDrops    int64 `json:"queue_drops"`

	// RetrainsPerSec is retrains per second of virtual time.
	RetrainsPerSec float64 `json:"retrains_per_sec"`

	SelectLatency LatencySummary    `json:"select_latency"`
	SelectionLoss stats.LossSummary `json:"selection_snr_loss"`
	TrackingLoss  stats.LossSummary `json:"tracking_snr_loss"`

	// Note and Benchmarks make the scorecard double as a benchdiff
	// baseline of virtual metrics.
	Note       string       `json:"note"`
	Benchmarks []BenchEntry `json:"benchmarks"`
}

// scorecard assembles the Scorecard from the manager's accumulated tally,
// first booking every quietly tracking station's pending epochs and the
// accruals of stations that departed since the last Step.
func (m *Manager) scorecard(cfg SimConfig, queueDrops int64) *Scorecard {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	t := &m.acc
	for _, sh := range m.shards {
		sh.mu.Lock()
		for slot := range sh.recs {
			m.settle(&sh.recs[slot], sh.cursor, &sh.partial)
		}
		t.merge(&sh.partial)
		sh.partial.reset()
		sh.mu.Unlock()
	}
	sc := &Scorecard{
		Config:        cfg,
		StationsFinal: 0, // filled by caller outside stepMu via Len
		Epochs:        int64(m.epoch),
		VirtualNs:     m.now.Load(),
		Trainings:     t.trainings,
		Retrains:      t.retrains,
		Failures:      t.failures,
		Fallbacks:     t.fallbacks,
		Degrades:      t.degrades,
		TrackedEpochs: t.trackedEpochs,
		Skipped:       t.skipped,
		QueueDrops:    queueDrops,
		SelectLatency: latencySummary(&t.latency),
		SelectionLoss: stats.SummarizeLoss(&t.selLoss),
		TrackingLoss:  stats.SummarizeLoss(&t.trackLoss),
	}
	if now := m.now.Load(); now > 0 {
		sc.RetrainsPerSec = float64(t.retrains) / (float64(now) / float64(time.Second))
	}
	sc.Note = "fleetsim virtual scorecard (deterministic; not wall-clock)"
	sc.Benchmarks = []BenchEntry{
		{Name: "BenchmarkFleetVirtual/select_latency_p50", Iters: sc.SelectLatency.Count, NsPerOp: float64(sc.SelectLatency.P50Ns)},
		{Name: "BenchmarkFleetVirtual/select_latency_p99", Iters: sc.SelectLatency.Count, NsPerOp: float64(sc.SelectLatency.P99Ns)},
		{Name: "BenchmarkFleetVirtual/selection_loss_p50_millidb", Iters: sc.SelectionLoss.Count, NsPerOp: float64(sc.SelectionLoss.P50Milli)},
		{Name: "BenchmarkFleetVirtual/tracking_loss_p99_millidb", Iters: sc.TrackingLoss.Count, NsPerOp: float64(sc.TrackingLoss.P99Milli)},
	}
	return sc
}
