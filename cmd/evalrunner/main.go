// Command evalrunner regenerates the tables and figures of the paper's
// evaluation section from the simulation, printing the same rows and
// series the paper reports.
//
// Usage:
//
//	evalrunner [-fidelity quick|full] [-seed N] -exp <study>[,<study>...]
//	evalrunner -list
//	evalrunner -record [-store DIR] [-trials N]
//	evalrunner -replay [-store DIR] [-out DIR]
//
// Studies live in internal/eval's study table; -list enumerates
// them and -exp all runs every one in the canonical order. Each study
// returns a typed report: the Table rendering goes to stdout, and with
// -out DIR the runner additionally writes <study>.txt and <study>.json
// artifacts.
//
// Campaign record/replay: -record draws the campaign's trials once and
// streams them into columnar trace-store shards under -store (default
// campaign-shards); -replay streams the shards back through the
// estimator and emits the deterministic scorecard (byte-identical at any
// -workers). Use both flags together for a record-then-replay round
// trip, or record once and replay many times. The campaign study of an
// -exp run records and replays its own shards: under -store when given,
// else in a temporary directory, removed when the study ends.
//
// Estimation: -exact forces the exhaustive scan of every grid point; by
// default the estimators run the hierarchical coarse-to-fine search,
// about 3× faster and with lower or equal Figure 9 loss at every
// M ≤ 20; the exhaustive argmax is ahead by at most 0.02 dB on a few
// rows at M ≥ 22 (DESIGN.md §12). Both run on the quantized int16
// kernel, so neither is bit-identical to the float64 serial reference
// (DESIGN.md §15).
// -workers n sets GOMAXPROCS to n, which bounds every trial loop; each
// estimate runs on the goroutine of its trial worker.
//
// Fault injection: -fault-rates sets the loss rates the faultsweep
// study sweeps (comma-separated), -fault-burst the mean loss-burst
// length in frames, -fault-trials the trials per rate and -fault-retries
// the resilient trainer's retry budget.
//
// Observability: -metrics dumps the metrics registry as JSON on exit
// ("-" = stdout), -debug serves /metrics and /debug/pprof while the
// experiments run, -cpuprofile writes a pprof CPU profile. Peak RSS is
// reported on stderr after the run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"talon/internal/core"
	"talon/internal/eval"
	"talon/internal/obs/obscli"
)

var (
	fidelity   = flag.String("fidelity", "full", "experiment fidelity: quick or full")
	seed       = flag.Int64("seed", 42, "experiment seed")
	exp        = flag.String("exp", "all", "comma-separated studies to run (see -list)")
	list       = flag.Bool("list", false, "list the registered studies and exit")
	outDir     = flag.String("out", "", "also write <study>.txt and <study>.json artifacts to this directory")
	workers    = flag.Int("workers", 0, "set GOMAXPROCS, which bounds every trial loop (0 = leave it, 1 = serial); results are identical at any setting")
	exact      = flag.Bool("exact", false, "scan every grid point exhaustively instead of the hierarchical coarse-to-fine search (both on the quantized kernel)")
	metricsOut = flag.String("metrics", "", "dump the metrics registry as JSON to this file on exit (\"-\" = stdout)")
	debugAddr  = flag.String("debug", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")

	record       = flag.Bool("record", false, "record the campaign into trace-store shards and exit (combine with -replay for a round trip)")
	replay       = flag.Bool("replay", false, "replay recorded trace-store shards into the campaign scorecard")
	store        = flag.String("store", "campaign-shards", "campaign shard directory (a study run without -store uses a temporary one)")
	trials       = flag.Int("trials", 0, "campaign trial count (0 = default)")
	split        = flag.Uint64("split", 0, "campaign in/out-of-sample boundary seed (0 = 80% shard boundary)")
	shardRecords = flag.Int("shard-records", 0, "campaign records per shard file (0 = default)")

	faultRates   = flag.String("fault-rates", "0,0.05,0.1,0.2", "faultsweep: comma-separated Gilbert–Elliott loss rates")
	faultBurst   = flag.Float64("fault-burst", 4, "faultsweep: mean loss-burst length in frames")
	faultTrials  = flag.Int("fault-trials", 0, "faultsweep: trials per loss rate (0 = fidelity default)")
	faultRetries = flag.Int("fault-retries", 3, "faultsweep: CSS retry budget per training")
)

func main() {
	flag.Parse()
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	cleanup, err := obscli.HookCLI(*metricsOut, *debugAddr, *cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evalrunner:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err = run(ctx)
	if cerr := cleanup(); cerr != nil && err == nil {
		err = cerr
	}
	reportPeakRSS()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "evalrunner: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "evalrunner:", err)
		os.Exit(1)
	}
}

func pick() (eval.Fidelity, error) {
	switch *fidelity {
	case "quick":
		return eval.Quick(), nil
	case "full":
		return eval.Full(), nil
	}
	return eval.Fidelity{}, fmt.Errorf("unknown fidelity %q", *fidelity)
}

// buildConfig assembles the cross-study Config from the flags.
func buildConfig(f eval.Fidelity) (eval.Config, error) {
	cfg := eval.NewConfig(f, *seed)
	rates, err := parseRates(*faultRates)
	if err != nil {
		return cfg, err
	}
	cfg.Fault = eval.FaultSweepConfig{
		LossRates: rates,
		MeanBurst: *faultBurst,
		Trials:    *faultTrials,
		Retries:   *faultRetries,
		Seed:      *seed,
	}
	cfg.Campaign = eval.CampaignConfig{
		Dir:             *store,
		Trials:          *trials,
		SplitSeed:       *split,
		RecordsPerShard: *shardRecords,
	}
	return cfg, nil
}

func run(ctx context.Context) error {
	if *list {
		for _, name := range eval.StudyNames() {
			fmt.Println(name)
		}
		return nil
	}
	f, err := pick()
	if err != nil {
		return err
	}
	cfg, err := buildConfig(f)
	if err != nil {
		return err
	}
	if *record || *replay {
		return runCampaignPipeline(ctx, cfg)
	}

	names := eval.StudyNames()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	var p *eval.Platform
	for i, name := range names {
		name = strings.TrimSpace(name)
		study, ok := eval.Lookup(name)
		if !ok {
			return eval.UnknownStudyError(name)
		}
		if study.NeedsPlatform && p == nil {
			p, err = buildPlatform(ctx, f)
			if err != nil {
				return err
			}
		}
		start := time.Now()
		rep, err := runStudy(ctx, study, p, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "%s finished in %v: %s\n", name, time.Since(start).Round(time.Millisecond), rep.Summary())
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(rep.Table())
		if err := writeArtifacts(name, rep); err != nil {
			return err
		}
	}
	return nil
}

// runStudy runs one study. Without -store on the command line, the
// campaign study records and replays its shards in a temporary
// directory, removed when it returns, and its report names the default
// store instead, so the artifacts do not depend on the directory.
func runStudy(ctx context.Context, study eval.Study, p *eval.Platform, cfg eval.Config) (eval.Report, error) {
	if study.Name != "campaign" || flagSet("store") {
		return study.Run(ctx, p, cfg)
	}
	dir, err := os.MkdirTemp("", "evalrunner-campaign-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	label := cfg.Campaign.Dir
	cfg.Campaign.Dir = dir
	rep, err := study.Run(ctx, p, cfg)
	if sc, ok := rep.(*eval.CampaignScorecard); ok {
		sc.Config.Dir = label
	}
	return rep, err
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// buildPlatform runs the chamber campaign once for every platform study.
func buildPlatform(ctx context.Context, f eval.Fidelity) (*eval.Platform, error) {
	fmt.Fprintf(os.Stderr, "building platform (%s fidelity, seed %d, %d workers)...\n", *fidelity, *seed, runtime.GOMAXPROCS(0))
	start := time.Now()
	p, err := eval.NewPlatform(ctx, *seed, f.PatternGrid, f.CampaignRepeats)
	if err != nil {
		return nil, err
	}
	if *exact {
		if p.Estimator, err = core.NewEstimator(p.Patterns, core.Options{ExactSearch: true}); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "platform ready in %v\n", time.Since(start).Round(time.Millisecond))
	return p, nil
}

// runCampaignPipeline drives the record-once/replay-many campaign flow.
func runCampaignPipeline(ctx context.Context, cfg eval.Config) error {
	f := cfg.Fidelity
	p, err := buildPlatform(ctx, f)
	if err != nil {
		return err
	}
	if *record {
		start := time.Now()
		shards, err := eval.RecordCampaign(ctx, p, cfg.Campaign)
		if err != nil {
			return err
		}
		var total uint64
		for _, sh := range shards {
			total += sh.Header.Records
		}
		fmt.Fprintf(os.Stderr, "recorded %d trials into %d shards under %s in %v\n",
			total, len(shards), *store, time.Since(start).Round(time.Millisecond))
	}
	if !*replay {
		return nil
	}
	start := time.Now()
	sc, err := eval.ReplayCampaign(ctx, p, cfg.Campaign)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "replay finished in %v (%d workers)\n", time.Since(start).Round(time.Millisecond), runtime.GOMAXPROCS(0))
	fmt.Print(sc.Table())
	return writeArtifacts("campaign", sc)
}

// writeArtifacts writes the report's text and JSON renderings under
// -out, when set.
func writeArtifacts(name string, rep eval.Report) error {
	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*outDir, name+".txt"), []byte(rep.Table()), 0o644); err != nil {
		return err
	}
	b, err := rep.MarshalJSON()
	if err != nil {
		return fmt.Errorf("%s: marshal: %w", name, err)
	}
	return os.WriteFile(filepath.Join(*outDir, name+".json"), append(b, '\n'), 0o644)
}

// reportPeakRSS prints the process's peak resident set (VmHWM) so
// bounded-memory claims are checkable from any run's stderr.
func reportPeakRSS() {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fmt.Fprintf(os.Stderr, "peak RSS: %s\n", strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")))
			return
		}
	}
}

func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -fault-rates entry %q: %w", field, err)
		}
		if v < 0 || v >= 1 {
			return nil, fmt.Errorf("-fault-rates entry %v out of [0, 1)", v)
		}
		rates = append(rates, v)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-fault-rates is empty")
	}
	return rates, nil
}
