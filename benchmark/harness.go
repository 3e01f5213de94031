package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"talon/internal/core"
	"talon/internal/eval"
	"talon/internal/obs"
)

// setupReps is how many times a run builds its workload from scratch.
// setup_s is the median, so one slow build does not move it.
const setupReps = 5

// workload is one benchmark input set. setup builds the workload's state
// from scratch, replacing any earlier state; measure runs the measured
// window over the state of the last setup.
type workload interface {
	setup(ctx context.Context, e *env) error
	measure(ctx context.Context, e *env, m *measurement) error
}

// workloadDef registers a workload under its BENCHMARK.json name.
type workloadDef struct {
	name string
	// tailQ is the quantile latency_ms_tail reports: the highest of p99
	// and p90 that leaves at least ten samples beyond it in the untraced
	// half of a window.
	tailQ float64
	make  func() workload
}

var workloads = []workloadDef{
	{"fleet-steady", 0.99, newFleetSteady},
	{"fleet-scan", 0.99, newFleetScan},
	{"campaign-replay", 0.90, newCampaignReplay},
	{"link-select", 0.99, newLinkSelect},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// env is what a workload sees of the harness.
type env struct {
	cfg config
	// tr records spans when tracing, and is nil otherwise.
	tr *tracer
	// setupSpan is the span of the setup repetition in progress.
	setupSpan int32
	// tmp is the run's scratch directory, removed when the run ends.
	tmp string
	// setupTimes collects per-repetition layer timings of setup; the
	// harness reports each layer's median.
	setupTimes map[string][]float64
}

// timeSetup records one setup layer timing of the current repetition.
func (e *env) timeSetup(layer string, d time.Duration) {
	e.setupTimes[layer] = append(e.setupTimes[layer], d.Seconds())
}

// traced reports whether operation i of the window records spans: in a
// traced run every other operation does, so one run yields both the
// per-layer spans and the tracing overhead.
func (e *env) traced(i int) *tracer {
	if i%2 == 0 {
		return e.tr
	}
	return nil
}

// scaled returns n scaled by the run's size factor, at least lo.
func (e *env) scaled(n, lo int) int {
	v := int(math.Round(float64(n) * e.cfg.scale))
	if v < lo {
		return lo
	}
	return v
}

// buildPlatform runs the chamber pattern campaign at the paper's
// full-fidelity 91×9 grid and builds the estimator every workload uses.
// The pattern "hardware" stays at platform seed 1: the workload seed
// varies the traffic, not the device.
func (e *env) buildPlatform(ctx context.Context, parent int32) (*eval.Platform, error) {
	f := eval.Full()
	sp := e.tr.begin(spPlatform, parent, -1)
	t0 := time.Now()
	p, err := eval.NewPlatform(ctx, 1, f.PatternGrid, f.CampaignRepeats)
	e.timeSetup("eval.platform_build_s", time.Since(t0))
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = e.tr.begin(spEstimator, parent, -1)
	t0 = time.Now()
	est, err := core.NewEstimator(p.Patterns, eval.EstimatorOptions())
	e.timeSetup("core.dict_build_s", time.Since(t0))
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	p.Estimator = est
	return p, nil
}

// measurement is what a workload's window reports.
type measurement struct {
	// ops holds the wall time of every operation in the window, in
	// nanoseconds: a fleet Step, a campaign replay or a SelectSector call.
	ops []int64
	// latency holds the operations latency_ms_p1 is taken over when a
	// workload leaves some out; nil means all of ops.
	latency []int64
	// windowS is the window's wall time, without quality checkpoints.
	windowS float64
	// selections counts sector selections made in the window.
	selections int64
	// lossDB and failedFrac describe the deterministic quality prefix:
	// mean ground-truth SNR loss of the selections, and the share of
	// selections that returned an error.
	lossDB, failedFrac float64
	// failed counts operations that returned an error the workload does
	// not model, or whose output failed a check.
	failed int64
	// digest is an FNV-1a hash over the workload's deterministic output.
	digest uint64
	checks []check
	layer  map[string]float64
	// before and after read the counters at the window's edges.
	before, after process
	// peakRSS is the window's peak resident set in MB.
	peakRSS float64
}

// startWindow returns setup's garbage to the OS and restarts the peak-RSS
// high-water mark, so peak_rss_mb measures the running service rather
// than the collector's pacing through the setups.
func (m *measurement) startWindow() {
	debug.FreeOSMemory()
	// Writing 5 resets VmHWM (Linux 4.0 and later). Where that fails,
	// peak_rss_mb also covers setup, consistently for every run.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	m.before = readProcess()
}

func (m *measurement) endWindow() {
	m.after = readProcess()
	m.peakRSS = peakRSSMB()
}

// mix folds the eight bytes of v into the digest.
func (m *measurement) mix(v uint64) {
	for i := 0; i < 8; i++ {
		m.digest = (m.digest ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
}

func (m *measurement) mixBytes(b []byte) {
	for _, c := range b {
		m.digest = (m.digest ^ uint64(c)) * fnvPrime
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (m *measurement) check(name string, ok bool, format string, args ...any) {
	m.checks = append(m.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// record is one run's full result, the line -o appends.
type record struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Digest    string           `json:"output_digest"`
	Checks    []check          `json:"checks"`
	Metrics   map[string]value `json:"metrics"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run. The returned tracer is nil unless
// cfg.trace is set.
func run(ctx context.Context, cfg config) (*record, *tracer, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return nil, nil, fmt.Errorf("--seconds and -scale must be positive")
	}
	if err := resolveCounters(); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{cfg: cfg, setupTimes: make(map[string][]float64), tmp: tmp}
	if cfg.trace {
		e.tr = newTracer(spanCapacity)
	}
	w := def.make()

	setup := make([]float64, setupReps)
	for i := range setup {
		e.setupSpan = e.tr.begin(spSetup, -1, -1)
		t0 := time.Now()
		if err := w.setup(ctx, e); err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setup[i] = time.Since(t0).Seconds()
		e.tr.end(e.setupSpan)
		// Collect the discarded repetition before the next build, so
		// the process never holds several workloads at once.
		runtime.GC()
	}

	m := &measurement{digest: fnvOffset, layer: make(map[string]float64)}
	if err := w.measure(ctx, e, m); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}

	rec := &record{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Trace:     cfg.trace,
		Attempted: int64(len(m.ops)),
		Failed:    m.failed,
		Digest:    fmt.Sprintf("%016x", m.digest),
	}
	m.check("operations", m.failed == 0 && len(m.ops) > 0, "%d of %d failed", m.failed, len(m.ops))
	rec.Checks = m.checks
	rec.Correct = true
	for _, c := range rec.Checks {
		rec.Correct = rec.Correct && c.OK
	}

	if cfg.trace {
		for layer, times := range e.setupTimes {
			m.layer[layer] = median(times)
		}
		m.after.layerDeltas(m.before, m)
		traced, untraced := splitParity(m.ops)
		if u := quantileInt(untraced, 0.5); u > 0 {
			m.layer["trace.overhead_frac"] = quantileInt(traced, 0.5)/u - 1
		}
		m.layer["latency_ms_p50"] = quantileInt(untraced, 0.5) / 1e6
		m.layer["latency_ms_tail"] = quantileInt(untraced, def.tailQ) / 1e6
		m.layer["selections_per_s"] = float64(m.selections) / m.windowS
		rec.Metrics = metricSet(perLayer, m.layer)
	} else {
		lat := m.latency
		if lat == nil {
			lat = m.ops
		}
		rec.Metrics = metricSet(endToEnd, map[string]float64{
			"setup_s":                median(setup),
			"latency_ms_p1":          quantileInt(lat, 0.01) / 1e6,
			"peak_rss_mb":            m.peakRSS,
			"selection_loss_db_mean": m.lossDB,
			"failed_frac":            m.failedFrac,
		})
	}
	return rec, e.tr, nil
}

// metricSet pairs every defined metric with its value (0 when the
// workload does not exercise that layer) and unit.
func metricSet(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// splitParity splits window operations into the traced (even) and
// untraced (odd) halves of a traced run.
func splitParity(ops []int64) (even, odd []int64) {
	for i, v := range ops {
		if i%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	return even, odd
}

// quantileInt is the nearest-rank q-quantile of xs (0 when empty).
func quantileInt(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return float64(s[nearestRank(len(s), q)])
}

func nearestRank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// sumSeconds totals nanosecond durations in seconds.
func sumSeconds(ns []int64) float64 {
	var t int64
	for _, d := range ns {
		t += d
	}
	return float64(t) / 1e9
}

// median of xs (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Registry counters the layer metrics are read from. Values are loaded
// atomically at window edges (and, for the two fleet counters, once per
// epoch); Registry.Snapshot allocates and is never called.
const (
	cBatchSeconds = iota
	cBatches
	cBatchItems
	cQuantTiles
	cWarmHints
	cWarmHits
	cWarmFallbacks
	cQuantFallbacks
	cHierFallbacks
	cEstimates
	cDegenerate
	cTrainings
	cRetrains
	cSelectFailures
	cFallbacks
	cDegrades
	cQueueDrops
	nCounters
)

var counterNames = [nCounters]string{
	cBatchSeconds:   "core_batch_seconds",
	cBatches:        "core_batches_total",
	cBatchItems:     "core_batch_estimates_total",
	cQuantTiles:     "core_quant_batch_tiles_total",
	cWarmHints:      "core_warm_hints_total",
	cWarmHits:       "core_warm_hits_total",
	cWarmFallbacks:  "core_warm_fallbacks_total",
	cQuantFallbacks: "core_quant_fallbacks_total",
	cHierFallbacks:  "core_hier_fallbacks_total",
	cEstimates:      "core_estimates_total",
	cDegenerate:     "core_surface_degenerate_total",
	cTrainings:      "fleet_trainings_total",
	cRetrains:       "fleet_retrains_total",
	cSelectFailures: "fleet_select_failures_total",
	cFallbacks:      "fleet_fallbacks_total",
	cDegrades:       "fleet_to_degraded_total",
	cQueueDrops:     "fleet_queue_drops_total",
}

var (
	batchSeconds *obs.Histogram
	counterRefs  [nCounters]*obs.Counter
)

// resolveCounters looks up the registry instruments once. The registry
// hands back an existing instrument by name; checking the names first
// keeps a renamed metric from silently reading a fresh zero counter.
func resolveCounters() error {
	have := make(map[string]bool)
	for _, n := range obs.Default().Names() {
		have[n] = true
	}
	for i, n := range counterNames {
		if !have[n] {
			return fmt.Errorf("metric %s is not registered", n)
		}
		if i == cBatchSeconds {
			batchSeconds = obs.Default().NewHistogram(n, "", nil)
			continue
		}
		counterRefs[i] = obs.Default().NewCounter(n, "")
	}
	return nil
}

func counterValue(i int) int64 { return counterRefs[i].Value() }

// process is a point-in-time reading of the registry counters and the
// process's own resource counters.
type process struct {
	counters  [nCounters]float64
	cpu       time.Duration
	wall      time.Time
	gcCycles  uint32
	gcPauseNs uint64
	allocB    uint64
}

func readProcess() process {
	var p process
	for i := range counterRefs {
		if i == cBatchSeconds {
			p.counters[i] = batchSeconds.Sum()
			continue
		}
		p.counters[i] = float64(counterRefs[i].Value())
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gcCycles, p.gcPauseNs, p.allocB = ms.NumGC, ms.PauseTotalNs, ms.TotalAlloc
	p.wall = time.Now()
	return p
}

// layerDeltas fills the registry- and process-derived layer metrics of
// the window between before and p.
func (p process) layerDeltas(before process, m *measurement) {
	d := func(i int) float64 { return p.counters[i] - before.counters[i] }
	l := m.layer
	l["core.batch_s"] = d(cBatchSeconds)
	l["core.batch_calls"] = d(cBatches)
	l["core.batch_items"] = d(cBatchItems)
	if items := d(cBatchItems); items > 0 {
		l["core.us_per_batch_item"] = d(cBatchSeconds) / items * 1e6
	}
	l["core.quant_batch_tiles"] = d(cQuantTiles)
	l["core.warm_hints"] = d(cWarmHints)
	l["core.warm_hits"] = d(cWarmHits)
	l["core.warm_fallbacks"] = d(cWarmFallbacks)
	if hints := d(cWarmHints); hints > 0 {
		l["core.warm_hit_frac"] = d(cWarmHits) / hints
	}
	if est := d(cEstimates); est > 0 {
		l["core.full_search_frac"] = (d(cQuantFallbacks) + d(cHierFallbacks)) / est
	}
	l["core.degenerate"] = d(cDegenerate)
	l["fleet.trainings"] = d(cTrainings)
	l["fleet.retrains"] = d(cRetrains)
	l["fleet.select_failures"] = d(cSelectFailures)
	l["fleet.fallbacks"] = d(cFallbacks)
	l["fleet.degrades"] = d(cDegrades)
	l["fleet.queue_drops"] = d(cQueueDrops)

	cpu := (p.cpu - before.cpu).Seconds()
	l["process.cpu_s"] = cpu
	if wall := p.wall.Sub(before.wall).Seconds(); wall > 0 {
		l["process.cpu_util"] = cpu / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	l["runtime.gc_cycles"] = float64(p.gcCycles - before.gcCycles)
	l["runtime.gc_pause_s"] = float64(p.gcPauseNs-before.gcPauseNs) / 1e9
	l["runtime.alloc_mb"] = float64(p.allocB-before.allocB) / 1e6
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's reserved memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
