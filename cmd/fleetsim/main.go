// Command fleetsim replays a seeded fleet workload — arrivals, churn,
// mobility, blockage and fault bursts over 10k to 1M stations — against
// the internal/fleet alignment service and reports a deterministic
// scorecard: p50/p99 virtual selection latency, retrains per second and
// the SNR-loss distributions of selection and tracking.
//
// Usage:
//
//	fleetsim [-stations N] [-epochs N] [-seed N] [-o scorecard.json]
//	fleetsim -record-events DIR [flags...]
//	fleetsim -replay-events DIR [flags...]
//
// The scorecard is a pure function of the flags: a fixed seed yields a
// byte-identical JSON file across runs, machines and -workers settings
// (-verify proves it by running twice). Wall-clock throughput is
// deliberately kept out of the scorecard and reported separately with
// -bench in `go test -bench` format, so `benchdiff -record` can track
// it; the scorecard itself doubles as a benchdiff baseline of virtual
// metrics via its embedded "benchmarks" array.
//
// Event persistence: -record-events streams the whole generated
// workload (preseed arrivals included) into columnar trace-store shards
// under the given directory while running normally; -replay-events
// drives a fresh fleet from such a recording instead of the live
// generator — the scorecard is byte-identical to the recording run's.
//
// Observability: -metrics dumps the metrics registry as JSON on exit
// ("-" = stdout), -debug serves /metrics and /debug/pprof while the
// simulation runs, -cpuprofile writes a pprof CPU profile.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"talon/internal/eval"
	"talon/internal/fleet"
	"talon/internal/obs/obscli"
)

var (
	stations = flag.Int("stations", 10000, "target fleet size")
	epochs   = flag.Int("epochs", 50, "virtual horizon in epochs")
	epoch    = flag.Duration("epoch", 100*time.Millisecond, "virtual epoch length")
	seed     = flag.Int64("seed", 1, "workload and probing seed")
	m        = flag.Int("m", 14, "compressive probe budget per training round")
	shards   = flag.Int("shards", 0, "shard count (0 = default 256, rounded to a power of two)")
	capacity = flag.Int("capacity", 0, "max trainings served per epoch (0 = unlimited)")
	workers  = flag.Int("workers", 0, "scan/batch worker count (0 = GOMAXPROCS); scorecard is identical at any setting")
	churn    = flag.Float64("churn", 0.002, "fraction of the fleet churned per epoch")
	mobility = flag.Float64("mobility", 0.01, "fraction of the fleet changing drift per epoch")
	blockage = flag.Float64("blockage", 0.002, "fraction of the fleet blocked per epoch")
	fault    = flag.Float64("fault", 0.002, "fraction of the fleet hit by probe-loss bursts per epoch")
	fidelity = flag.String("fidelity", "quick", "pattern-campaign fidelity: quick or full")
	out      = flag.String("o", "-", "scorecard JSON destination (\"-\" = stdout)")
	bench    = flag.Bool("bench", false, "print wall-clock throughput in `go test -bench` format on stderr-independent stdout for benchdiff -record")
	verify   = flag.Bool("verify", false, "run the simulation twice and fail unless the scorecards are byte-identical")

	recordEvents = flag.String("record-events", "", "also persist the generated event stream into trace-store shards under this directory")
	replayEvents = flag.String("replay-events", "", "replay a recorded event stream from this directory instead of generating the workload")

	metricsOut = flag.String("metrics", "", "dump the metrics registry as JSON to this file on exit (\"-\" = stdout)")
	debugAddr  = flag.String("debug", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
)

func main() {
	flag.Parse()
	cleanup, err := obscli.HookCLI(*metricsOut, *debugAddr, *cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err = run(ctx)
	if cerr := cleanup(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "fleetsim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var f eval.Fidelity
	switch *fidelity {
	case "quick":
		f = eval.Quick()
	case "full":
		f = eval.Full()
	default:
		return fmt.Errorf("unknown fidelity %q", *fidelity)
	}
	cfg := fleet.SimConfig{
		Stations:         *stations,
		Epochs:           *epochs,
		EpochNs:          int64(*epoch),
		Seed:             *seed,
		M:                *m,
		Shards:           *shards,
		Capacity:         *capacity,
		Workers:          *workers,
		ChurnPerEpoch:    *churn,
		MobilityPerEpoch: *mobility,
		BlockagePerEpoch: *blockage,
		FaultPerEpoch:    *fault,
	}

	fmt.Fprintf(os.Stderr, "fleetsim: measuring patterns (%s fidelity)...\n", *fidelity)
	p, err := eval.NewPlatform(ctx, *seed, f.PatternGrid, f.CampaignRepeats)
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "fleetsim: replaying %d stations x %d epochs (seed %d)...\n",
		cfg.Stations, cfg.Epochs, cfg.Seed)
	start := time.Now()
	sc, err := runFleet(ctx, p, cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	blob, err := encode(sc)
	if err != nil {
		return err
	}

	if *verify {
		fmt.Fprintln(os.Stderr, "fleetsim: verify pass (second run)...")
		sc2, err := runFleet(ctx, p, cfg)
		if err != nil {
			return err
		}
		blob2, err := encode(sc2)
		if err != nil {
			return err
		}
		if !bytes.Equal(blob, blob2) {
			return errors.New("verify: scorecards differ between identical runs")
		}
		fmt.Fprintln(os.Stderr, "fleetsim: verify OK — scorecards byte-identical")
	}

	if err := emit(*out, blob); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"fleetsim: %d trainings (%d retrains, %d failures) in %v wall; latency p50 %v p99 %v; selection loss p50 %.2f dB\n",
		sc.Trainings, sc.Retrains, sc.Failures, wall.Round(time.Millisecond),
		time.Duration(sc.SelectLatency.P50Ns), time.Duration(sc.SelectLatency.P99Ns),
		float64(sc.SelectionLoss.P50Milli)/1000)

	if *bench {
		printBench(sc, wall, cfg)
	}
	return nil
}

// runFleet dispatches between the live generator, the recording run and
// the event-stream replay.
func runFleet(ctx context.Context, p *eval.Platform, cfg fleet.SimConfig) (*fleet.Scorecard, error) {
	switch {
	case *replayEvents != "":
		return fleet.ReplaySim(ctx, p.Estimator, p.Patterns, cfg, *replayEvents, eventBase)
	case *recordEvents != "":
		sc, shards, err := fleet.RunSimRecorded(ctx, p.Estimator, p.Patterns, cfg, *recordEvents, eventBase)
		if err != nil {
			return nil, err
		}
		var events uint64
		for _, sh := range shards {
			events += sh.Header.Records
		}
		fmt.Fprintf(os.Stderr, "fleetsim: recorded %d events into %d shards under %s\n",
			events, len(shards), *recordEvents)
		return sc, nil
	default:
		return fleet.RunSim(ctx, p.Estimator, p.Patterns, cfg)
	}
}

// eventBase is the shard basename of -record-events/-replay-events.
const eventBase = "fleet-events"

func encode(sc *fleet.Scorecard) ([]byte, error) {
	blob, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

func emit(dst string, blob []byte) error {
	if dst == "-" {
		_, err := os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(dst, blob, 0o644)
}

// printBench reports wall-clock throughput in `go test -bench` text
// format so `benchdiff -record` can capture it into a baseline.
func printBench(sc *fleet.Scorecard, wall time.Duration, cfg fleet.SimConfig) {
	procs := runtime.GOMAXPROCS(0)
	if sc.Epochs > 0 {
		fmt.Printf("BenchmarkFleetsimWall/stations=%d/step-%d %d %.1f ns/op\n",
			cfg.Stations, procs, sc.Epochs, float64(wall.Nanoseconds())/float64(sc.Epochs))
	}
	if sc.Trainings > 0 {
		fmt.Printf("BenchmarkFleetsimWall/stations=%d/training-%d %d %.1f ns/op\n",
			cfg.Stations, procs, sc.Trainings, float64(wall.Nanoseconds())/float64(sc.Trainings))
	}
}
