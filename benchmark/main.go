// Command benchmark is the repository benchmark. One process drives the
// CSS stack's public entry points — the chamber pattern campaign, the
// estimator, the fleet service, campaign record/replay and single-call
// sector selection — over four stationary workloads, times every layer
// from the outside and checks the outputs.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload fleet-steady --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload link-select --seed 3 --trace 1 -spans spans.json
//	bash benchmark/run.sh -compare before.jsonl after.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json without tracing, its per-layer metrics with --trace 1.
// The lines above it print the same metrics for a reader, the output
// checks and, when tracing, the self-time table. -o appends the full run
// record (checks, output digest, metrics) as one JSON line; -compare
// reads two such files. The process exits non-zero when an output check
// fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	// seconds is the length of the measured window. A workload extends
	// it until its deterministic quality prefix is complete.
	seconds float64
	trace   bool
	// scale multiplies every workload size (stations, trials); the smoke
	// test runs at 0.01.
	scale float64
	// workDir receives the run's temporary files (recorded campaigns).
	workDir string
}

func main() {
	var (
		cfg       config
		traceFlag int
		spansOut  string
		out       string
		compare   bool
		benchFile string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics, 0 reports the end-to-end metrics")
	flag.StringVar(&spansOut, "spans", "", "with --trace 1, write the recorded spans as JSON to this file")
	flag.StringVar(&out, "o", "", "append the full run record as one JSON line to this file")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiply every workload size by this factor")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for the run's temporary files")
	flag.BoolVar(&compare, "compare", false, "compare two files of -o records: -compare A B")
	flag.StringVar(&benchFile, "bench", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two record files"))
		}
		if err := compareFiles(os.Stdout, benchFile, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", traceFlag))
	}
	cfg.trace = traceFlag == 1

	// One P: on a shared 2-vCPU host, how soon the second vCPU runs a
	// woken worker is the host's doing. With two Ps the median fleet epoch
	// of ten runs of one commit spread over 22% of itself (quartile
	// distance), with one P over 8%. The benchmark therefore measures the
	// work each decision costs, not how that work spreads over cores.
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rec, spans, err := run(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	report(os.Stdout, rec)
	if spans != nil {
		spans.printSelfTime(os.Stdout)
		if spansOut != "" {
			if err := spans.writeJSON(spansOut, rec.Workload, rec.Seed); err != nil {
				fatal(err)
			}
		}
	}
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// report prints the run record for a reader.
func report(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s, seed %d, trace %v: %d operations, %d failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, c := range rec.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-26s %-6s %s\n", c.Name, status, c.Detail)
	}
	fmt.Fprintf(w, "  output_digest %s\n", rec.Digest)
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
