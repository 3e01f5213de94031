package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"talon/internal/fleet"
)

// TestDefinitionMatchesCode keeps BENCHMARK.json and the metric and
// workload tables the benchmark prints from in step.
func TestDefinitionMatchesCode(t *testing.T) {
	def, err := loadBenchDef(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(def.Workloads), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", got, want)
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range def.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestSmoke runs every workload at 1% size, untraced and traced: every
// output check passes, every metric is reported with its unit, and tracing does
// not change the output digest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			digests := map[bool]string{}
			for _, trace := range []bool{false, true} {
				cfg := config{workload: w.name, seed: 3, seconds: 0.2, trace: trace, scale: 0.01, workDir: t.TempDir()}
				rec, _, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range rec.Checks {
					if !c.OK {
						t.Errorf("trace %v: check %s failed: %s", trace, c.Name, c.Detail)
					}
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics, want %d", trace, len(rec.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := rec.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("trace %v: metric %s = %+v, want unit %s", trace, d.name, v, d.unit)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if rec.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v", d.name, rec.Metrics[d.name].Value)
						}
					}
				}
				digests[trace] = rec.Digest
			}
			if digests[false] != digests[true] {
				t.Errorf("digest %s untraced, %s traced", digests[false], digests[true])
			}
		})
	}
}

// TestGeneratorAllocatesNothing pins the stationary generator's
// steady state: an epoch of churn, walks, blockages and faults allocates
// nothing, so the window loop cannot drift through the collector.
func TestGeneratorAllocatesNothing(t *testing.T) {
	e := &env{cfg: config{seed: 5, scale: 0.01}, setupTimes: map[string][]float64{}}
	w := newFleetSteady().(*fleetWorkload)
	if err := w.setup(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	step := func() {
		w.gen.epoch()
		if err := w.m.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, w.gen.epoch); n != 0 {
		t.Errorf("generator epoch allocates %v times", n)
	}
	if w.gen.drops != 0 {
		t.Errorf("%d events dropped", w.gen.drops)
	}
}

// TestWalksStayInCoverage drives walks until each has ended: no station
// leaves the inset coverage, so a long window cannot drift off the
// measured patterns.
func TestWalksStayInCoverage(t *testing.T) {
	e := &env{cfg: config{seed: 9, scale: 0.02}, setupTimes: map[string][]float64{}}
	w := newFleetSteady().(*fleetWorkload)
	w.p.mobility = 0.2
	if err := w.setup(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 300; ep++ {
		w.gen.epoch()
		if err := w.m.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, id := range w.gen.alive {
			s, ok := w.m.Snapshot(id)
			if ok && (s.AzDeg < w.gen.azLo-1e-9 || s.AzDeg > w.gen.azHi+1e-9) {
				t.Fatalf("epoch %d: station %d at azimuth %v outside [%v, %v]", ep, id, s.AzDeg, w.gen.azLo, w.gen.azHi)
			}
		}
	}
	moving := 0
	for _, id := range w.gen.alive {
		if s, ok := w.m.Snapshot(id); ok && s.State != fleet.StateIdle {
			moving++
		}
	}
	if moving == 0 {
		t.Fatal("no station was served")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
		{[]float64{2.5, 1}, [3]float64{0.625, 1.75, 2.875}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		if got := quartiles(c.data); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10.05, 10, 9.95}, "lower", 0.05, "within bound"},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "lower", 0.05, "better"},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "lower", 0.05, "worse"},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "higher", 0.05, "better"},
		{[]float64{8, 10, 12, 9, 11}, []float64{9, 11, 13, 10, 12}, "lower", 0.05, "unresolved"},
		{[]float64{0, 0}, []float64{0, 0}, "lower", 0, "within bound"},
	} {
		if got, _ := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %s, %v) = %s, want %s", c.a, c.b, c.better, c.bound, got, c.want)
		}
	}
}

// TestCompareReportsDigests runs -compare on two record files.
func TestCompareReportsDigests(t *testing.T) {
	dir := t.TempDir()
	rec := func(digest string, v float64) *record {
		return &record{Workload: "link-select", Seed: 1, Digest: digest,
			Metrics: map[string]value{"latency_ms_p1": {v, "ms"}}}
	}
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for _, r := range []struct {
		path string
		rec  *record
	}{{a, rec("x", 1)}, {a, rec("x", 1.01)}, {b, rec("y", 2)}} {
		if err := appendRecord(r.path, r.rec); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), a, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"latency_ms_p1", "worse", "DIFFERENT"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
