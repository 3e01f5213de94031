// Command benchdiff records and compares Go benchmark results without
// external tooling. It reads the text output of `go test -bench` on
// stdin and either canonicalizes it to JSON (-record, the format of the
// committed BENCH_engine.json baseline) or renders a benchstat-style
// comparison against such a baseline (-against).
//
// Recording a baseline:
//
//	go test ./internal/core/ -run xxx -bench 'Estimate|SelectSector|Batch' \
//	    -benchmem -benchtime 200ms | go run ./cmd/benchdiff -record > BENCH_engine.json
//
// Comparing a fresh run (advisory by default; -strict exits non-zero
// when any benchmark slows down by more than -threshold):
//
//	go test ./internal/core/ -run xxx -bench ... | \
//	    go run ./cmd/benchdiff -against BENCH_engine.json
//
// Benchmark names are normalized by stripping the trailing -GOMAXPROCS
// suffix so baselines recorded on machines with different core counts
// still line up. Comparisons are advisory by design: single-run deltas
// on shared CI hardware are noisy, so CI runs them with -strict off and
// a generous threshold, and regressions are triaged by a human.
//
// Same-run speed-up gates (-speedup, repeatable) assert a ratio between
// two benchmarks of the fresh run itself:
//
//	go test ./internal/core/ -run xxx -bench ... | \
//	    go run ./cmd/benchdiff -against BENCH_engine.json \
//	    -speedup 'BenchmarkEstimateAoA_Quant>=2xBenchmarkEstimateAoA_QuantDense'
//
// Unlike baseline deltas these compare two measurements from the same
// machine and process, so they are enforced (exit 1 on violation) even
// without -strict.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Result is one benchmark line in canonical form.
type Result struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Baseline is the committed benchmark snapshot.
type Baseline struct {
	Note       string   `json:"note,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches `BenchmarkFoo-8  1234  77458 ns/op ...`; the unit
// fields after ns/op are parsed separately.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)
	unitField = regexp.MustCompile(`([0-9.]+) (B/op|allocs/op)`)
)

func parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad iteration count in %q: %w", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad ns/op in %q: %w", sc.Text(), err)
		}
		res := Result{Name: m[1], Iters: iters, NsPerOp: ns}
		for _, u := range unitField.FindAllStringSubmatch(m[5], -1) {
			v, err := strconv.ParseFloat(u[1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad %s in %q: %w", u[2], sc.Text(), err)
			}
			switch u[2] {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func record(results []Result, note string, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Baseline{Note: note, Benchmarks: results})
}

// compare prints a delta table and returns the names of benchmarks whose
// ns/op regressed beyond threshold (a fraction, e.g. 0.30 for +30%).
func compare(baseline Baseline, fresh []Result, threshold float64, w io.Writer) []string {
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	var regressed []string
	fmt.Fprintf(w, "%-40s %14s %14s %8s\n", "benchmark", "base ns/op", "new ns/op", "delta")
	for _, r := range fresh {
		b, ok := base[r.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Fprintf(w, "%-40s %14s %14.0f %8s\n", r.Name, "-", r.NsPerOp, "new")
			continue
		}
		delta := r.NsPerOp/b.NsPerOp - 1
		marker := ""
		if delta > threshold {
			marker = "  << regression"
			regressed = append(regressed, r.Name)
		}
		fmt.Fprintf(w, "%-40s %14.0f %14.0f %+7.1f%%%s\n", r.Name, b.NsPerOp, r.NsPerOp, 100*delta, marker)
		delete(base, r.Name)
	}
	var missing []string
	for name := range base {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "%-40s %14.0f %14s %8s\n", name, base[name].NsPerOp, "-", "gone")
	}
	return regressed
}

// speedupGate asserts fast.NsPerOp*factor <= base.NsPerOp within one run.
type speedupGate struct {
	fast, base string
	factor     float64
}

// speedupSpec matches 'FAST>=FACTORxBASE', e.g.
// 'BenchmarkEstimateAoA_Quant>=2xBenchmarkEstimateAoA_QuantDense'.
var speedupSpec = regexp.MustCompile(`^(Benchmark\S+?)>=([0-9.]+)x(Benchmark\S+)$`)

func parseSpeedup(spec string) (speedupGate, error) {
	m := speedupSpec.FindStringSubmatch(spec)
	if m == nil {
		return speedupGate{}, fmt.Errorf("benchdiff: bad -speedup %q: want 'FAST>=FACTORxBASE'", spec)
	}
	factor, err := strconv.ParseFloat(m[2], 64)
	if err != nil || factor <= 0 {
		return speedupGate{}, fmt.Errorf("benchdiff: bad -speedup factor in %q", spec)
	}
	return speedupGate{fast: m[1], base: m[3], factor: factor}, nil
}

// checkSpeedups evaluates the gates against one run's results and
// returns a violation message per failed gate. A gate whose benchmarks
// are absent from the run fails too — a silently skipped gate would
// read as a pass.
func checkSpeedups(gates []speedupGate, fresh []Result, w io.Writer) []string {
	byName := make(map[string]Result, len(fresh))
	for _, r := range fresh {
		byName[r.Name] = r
	}
	var violations []string
	for _, g := range gates {
		fast, okF := byName[g.fast]
		base, okB := byName[g.base]
		if !okF || !okB {
			violations = append(violations, fmt.Sprintf("%s>=%gx%s: benchmark missing from run", g.fast, g.factor, g.base))
			continue
		}
		got := base.NsPerOp / fast.NsPerOp
		status := "ok"
		if fast.NsPerOp*g.factor > base.NsPerOp {
			status = "VIOLATED"
			violations = append(violations, fmt.Sprintf("%s is %.2fx faster than %s, want >=%gx", g.fast, got, g.base, g.factor))
		}
		fmt.Fprintf(w, "speedup %-72s %6.2fx  %s\n", fmt.Sprintf("%s>=%gx%s", g.fast, g.factor, g.base), got, status)
	}
	return violations
}

func main() {
	var (
		doRecord  = flag.Bool("record", false, "canonicalize `go test -bench` text from stdin to baseline JSON on stdout")
		against   = flag.String("against", "", "baseline JSON `file` to compare stdin's bench text against")
		strict    = flag.Bool("strict", false, "with -against: exit 1 when any benchmark regresses beyond -threshold")
		threshold = flag.Float64("threshold", 0.30, "regression threshold as a fraction of baseline ns/op")
		note      = flag.String("note", "", "free-form provenance note stored in the recorded baseline")
	)
	var gates []speedupGate
	flag.Func("speedup", "same-run ratio gate 'FAST>=FACTORxBASE' (repeatable); exit 1 on violation", func(spec string) error {
		g, err := parseSpeedup(spec)
		if err != nil {
			return err
		}
		gates = append(gates, g)
		return nil
	})
	flag.Parse()
	if *doRecord == (*against != "") {
		fmt.Fprintln(os.Stderr, "benchdiff: exactly one of -record or -against is required")
		os.Exit(2)
	}
	results, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines on stdin")
		os.Exit(2)
	}
	if *doRecord {
		if err := record(results, *note, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// Gate table goes to stderr so stdout stays valid baseline JSON.
		if v := checkSpeedups(gates, results, os.Stderr); len(v) > 0 {
			for _, msg := range v {
				fmt.Fprintln(os.Stderr, "benchdiff: speedup gate:", msg)
			}
			os.Exit(1)
		}
		return
	}
	raw, err := os.ReadFile(*against)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var baseline Baseline
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: parsing %s: %v\n", *against, err)
		os.Exit(2)
	}
	regressed := compare(baseline, results, *threshold, os.Stdout)
	violations := checkSpeedups(gates, results, os.Stdout)
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) beyond +%.0f%%: %v\n",
			len(regressed), 100**threshold, regressed)
		if *strict {
			os.Exit(1)
		}
	}
	if len(violations) > 0 {
		for _, msg := range violations {
			fmt.Fprintln(os.Stderr, "benchdiff: speedup gate:", msg)
		}
		os.Exit(1)
	}
}
