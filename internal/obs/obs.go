// Package obs is the observability substrate of the CSS stack: a
// dependency-free, race-safe metrics registry (atomic counters, gauges
// and fixed-bucket latency histograms) and a span-based Tracer hook that
// defaults to a no-op. The CLIs' debug server and profiling live in
// internal/obs/obscli, so linking obs does not link the HTTP stack.
//
// Hot paths register their metrics once at package init against the
// process-wide Default registry and update them with single atomic
// operations, so instrumentation stays cheap enough for per-estimate and
// per-frame call sites. A Snapshot of the registry marshals to
// deterministic JSON (names sorted); obscli publishes it through expvar
// and serves it next to /debug/pprof.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// metric is the common behaviour of every registered instrument.
type metric interface {
	kind() string
	snapshot(help string) any
}

// Registry holds named metrics. All methods are safe for concurrent use;
// updates on the returned instruments are lock-free.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
	help    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric), help: make(map[string]string)}
}

// defaultRegistry is the process-wide registry the package-level
// constructors register against.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// register get-or-creates a named metric. Re-registering a name with a
// different kind is a programming error and panics.
func (r *Registry) register(name string, m metric, help string) metric {
	if name == "" {
		panic("obs: metric without a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.metrics[name]; ok {
		if existing.kind() != m.kind() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, m.kind(), existing.kind()))
		}
		return existing
	}
	r.metrics[name] = m
	r.help[name] = help
	return m
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are a programming error but tolerated).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) kind() string { return "counter" }

func (c *Counter) snapshot(help string) any {
	return scalarSnapshot{Type: "counter", Help: help, Value: float64(c.Value())}
}

// Gauge is an atomic instantaneous integer value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) kind() string { return "gauge" }

func (g *Gauge) snapshot(help string) any {
	return scalarSnapshot{Type: "gauge", Help: help, Value: float64(g.Value())}
}

// FloatGauge is an atomic instantaneous float value (ratios,
// utilizations).
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *FloatGauge) kind() string { return "gauge_float" }

func (g *FloatGauge) snapshot(help string) any {
	return scalarSnapshot{Type: "gauge", Help: help, Value: g.Value()}
}

// Histogram is a fixed-bucket distribution: observations land in the
// first bucket whose upper bound is >= the value, with an implicit +Inf
// overflow bucket. Observe is a bounded number of atomic operations, so
// it is safe on hot paths.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, exclusive of +Inf
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	maxBits atomic.Uint64 // float64 bits, CAS-maximum
}

// LatencyBuckets is the default bucket ladder for wall-time histograms:
// 1 µs to 30 s, roughly trebling, in seconds.
var LatencyBuckets = []float64{
	1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4,
	1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
	1, 3, 10, 30,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the final slot is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveSince records the wall time elapsed since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

func (h *Histogram) kind() string { return "histogram" }

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	// LE is the bucket's inclusive upper bound ("+Inf" for the overflow
	// bucket), formatted for stable JSON.
	LE string `json:"le"`
	// Count is the cumulative number of observations <= LE.
	Count int64 `json:"count"`
}

// HistogramSnapshot is the point-in-time state of a histogram.
type HistogramSnapshot struct {
	Type    string           `json:"type"`
	Help    string           `json:"help,omitempty"`
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Max     float64          `json:"max"`
	Mean    float64          `json:"mean"`
	Buckets []BucketSnapshot `json:"buckets"`
}

func (h *Histogram) snapshot(help string) any {
	s := HistogramSnapshot{Type: "histogram", Help: help, Count: h.Count(), Sum: h.Sum(), Max: h.Max()}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		s.Buckets = append(s.Buckets, BucketSnapshot{LE: le, Count: cum})
	}
	return s
}

// scalarSnapshot is the snapshot form of counters and gauges.
type scalarSnapshot struct {
	Type  string  `json:"type"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value"`
}

// NewCounter registers (or returns the existing) counter under name.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, &Counter{}, help).(*Counter)
}

// NewGauge registers (or returns the existing) gauge under name.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, &Gauge{}, help).(*Gauge)
}

// NewFloatGauge registers (or returns the existing) float gauge.
func (r *Registry) NewFloatGauge(name, help string) *FloatGauge {
	return r.register(name, &FloatGauge{}, help).(*FloatGauge)
}

// NewHistogram registers (or returns the existing) histogram with the
// given ascending bucket upper bounds (nil picks LatencyBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, newHistogram(bounds), help).(*Histogram)
}

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.NewCounter(name, help) }

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.NewGauge(name, help) }

// NewFloatGauge registers a float gauge on the Default registry.
func NewFloatGauge(name, help string) *FloatGauge { return defaultRegistry.NewFloatGauge(name, help) }

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return defaultRegistry.NewHistogram(name, help, bounds)
}

// Snapshot is a point-in-time copy of every metric, keyed by name.
type Snapshot map[string]any

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(Snapshot, len(r.metrics))
	for name, m := range r.metrics {
		out[name] = m.snapshot(r.help[name])
	}
	return out
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MarshalJSON renders the snapshot as deterministic JSON (encoding/json
// sorts map keys).
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}
