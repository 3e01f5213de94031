package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"talon/internal/core"
	"talon/internal/testutil"
)

// goldenSimConfig is the pinned workload of the golden scorecard: small
// enough for a unit test, busy enough to exercise churn, mobility,
// blockage, fault bursts and capacity queueing in one run.
func goldenSimConfig() SimConfig {
	return SimConfig{
		Stations:         150,
		Epochs:           20,
		EpochNs:          int64(100 * time.Millisecond),
		Seed:             7,
		M:                12,
		Shards:           4,
		Capacity:         60,
		ChurnPerEpoch:    0.02,
		MobilityPerEpoch: 0.05,
		BlockagePerEpoch: 0.02,
		FaultPerEpoch:    0.02,
	}
}

func runGoldenSim(t *testing.T, workers int) []byte {
	t.Helper()
	set := synthPatterns(t)
	est, err := core.NewEstimator(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenSimConfig()
	cfg.Workers = workers
	sc, err := RunSim(context.Background(), est, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// TestSimGoldenScorecardQuant pins the full scorecard of the seeded
// workload byte for byte under the default (quantized) kernel, recorded
// the moment the quantized kernel became the default. Any later change
// to the quantized arithmetic — scale, lattice, tiling — that moves
// fleet-level outcomes shows up here as a byte diff. Regenerate with
// -update after intentional changes.
func TestSimGoldenScorecardQuant(t *testing.T) {
	got := runGoldenSim(t, 0)
	testutil.Golden(t, filepath.Join("testdata", "scorecard.quant.golden.json"), got)
}

// TestSimDeterminism proves the scorecard is a pure function of the
// config: byte-identical across repeated runs and across serial vs
// parallel execution. It exercises the batch-major tile pass, whose
// per-item results must not depend on how the batch was chunked across
// workers.
func TestSimDeterminism(t *testing.T) {
	base := runGoldenSim(t, 0)
	for _, workers := range []int{1, 2, 0} {
		if got := runGoldenSim(t, workers); !bytes.Equal(base, got) {
			t.Fatalf("workers=%d scorecard differs from baseline", workers)
		}
	}
}

// TestSimSanity checks the headline scorecard numbers hang together.
func TestSimSanity(t *testing.T) {
	var sc Scorecard
	if err := json.Unmarshal(runGoldenSim(t, 0), &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Trainings == 0 {
		t.Fatal("no trainings served")
	}
	if sc.Retrains >= sc.Trainings {
		t.Errorf("retrains %d not below trainings %d", sc.Retrains, sc.Trainings)
	}
	if sc.SelectLatency.Count != sc.Trainings {
		t.Errorf("latency count %d != trainings %d", sc.SelectLatency.Count, sc.Trainings)
	}
	if sc.SelectLatency.P50Ns > sc.SelectLatency.P99Ns || sc.SelectLatency.P99Ns > sc.SelectLatency.MaxNs {
		t.Errorf("latency quantiles out of order: %+v", sc.SelectLatency)
	}
	// Capacity 60 under ~150 initial trainings must defer work, so the
	// tail has to reach past one epoch.
	if sc.SelectLatency.MaxNs <= sc.Config.EpochNs {
		t.Errorf("capacity queueing left no latency tail: max %d ns", sc.SelectLatency.MaxNs)
	}
	if sc.VirtualNs != int64(sc.Config.Epochs)*sc.Config.EpochNs {
		t.Errorf("virtual clock %d != epochs x epoch", sc.VirtualNs)
	}
	if sc.RetrainsPerSec <= 0 {
		t.Error("no retrain throughput reported")
	}
	if len(sc.Benchmarks) == 0 || sc.Note == "" {
		t.Error("scorecard is missing its benchdiff baseline surface")
	}
}

// TestSimLargeSmoke runs a bigger fleet through a short horizon to keep
// the scaling path (multiple chunks, many shards) covered by `go test`.
func TestSimLargeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large fleet smoke skipped in -short")
	}
	set := synthPatterns(t)
	est, err := core.NewEstimator(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{
		Stations:         5000,
		Epochs:           6,
		EpochNs:          int64(100 * time.Millisecond),
		Seed:             3,
		M:                14,
		ChurnPerEpoch:    0.002,
		MobilityPerEpoch: 0.01,
		BlockagePerEpoch: 0.002,
		FaultPerEpoch:    0.002,
	}
	sc, err := RunSim(context.Background(), est, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc.StationsFinal < 4900 || sc.Trainings < int64(cfg.Stations) {
		t.Fatalf("smoke run lost the fleet: %d stations, %d trainings", sc.StationsFinal, sc.Trainings)
	}
}
