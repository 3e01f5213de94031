package fleet

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"talon/internal/core"
	"talon/internal/geom"
	"talon/internal/pattern"
	"talon/internal/sector"
	"talon/internal/stats"
)

// synthPatterns builds a synthetic codebook of gaussian beams spread
// over azimuth, mirroring internal/core's test fixture: cheap to build,
// unambiguous enough that CSS finds the right sector.
func synthPatterns(t testing.TB) *pattern.Set {
	t.Helper()
	grid, err := geom.UniformGrid(-80, 80, 2, 0, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := sector.TalonTX()
	set := pattern.NewSet()
	for i, id := range ids {
		azC := -75 + 150*float64(i)/float64(len(ids)-1)
		elC := float64((i * 7) % 25)
		width := 14 + float64(i%3)*4
		p := pattern.FromFunc(grid, func(az, el float64) float64 {
			d2 := (az-azC)*(az-azC) + 2*(el-elC)*(el-elC)
			return 12 - 19*(1-math.Exp(-d2/(2*width*width)))
		})
		if err := set.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

// testFleet builds a Manager over the synthetic codebook.
func testFleet(t testing.TB, opts ...Option) (*Manager, *pattern.Set) {
	t.Helper()
	set := synthPatterns(t)
	est, err := core.NewEstimator(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(est, set, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m, set
}

func TestNewValidation(t *testing.T) {
	set := synthPatterns(t)
	est, err := core.NewEstimator(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, set); err == nil {
		t.Error("nil estimator accepted")
	}
	if _, err := New(est, pattern.NewSet()); err == nil {
		t.Error("empty pattern set accepted")
	}
	if _, err := New(est, set, WithEpoch(0)); err == nil {
		t.Error("zero epoch accepted")
	}
	if _, err := New(est, set, WithProbeBudget(1000)); err == nil {
		t.Error("oversized probe budget accepted")
	}
	m, err := New(est, set, WithShards(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.shards); got != 8 {
		t.Errorf("5 shards rounded to %d, want 8", got)
	}
}

// TestLifecycle walks one station through the full state machine:
// idle → training → tracking within the first Step, degraded by a
// blockage, retraining after backoff, tracking again once the blockage
// clears.
func TestLifecycle(t *testing.T) {
	m, _ := testFleet(t, WithShards(1), WithSeed(11))
	ctx := context.Background()
	const id StationID = 1

	if !m.Arrive(Event{Kind: EventArrival, Station: id, AzDeg: -40, ElDeg: 10, DistM: 3}) {
		t.Fatal("arrival rejected")
	}
	if m.Arrive(Event{Kind: EventArrival, Station: id, AzDeg: 0, ElDeg: 0, DistM: 3}) {
		t.Fatal("duplicate arrival accepted")
	}
	snap, ok := m.Snapshot(id)
	if !ok || snap.State != StateIdle {
		t.Fatalf("after arrival: %+v, want idle", snap)
	}

	if err := m.Step(ctx); err != nil {
		t.Fatal(err)
	}
	snap, _ = m.Snapshot(id)
	if snap.State != StateTracking || !snap.HasLink {
		t.Fatalf("after first step: %+v, want tracking with a sector", snap)
	}
	firstSector := snap.Sector

	// A hard blockage pushes the served gain over the degrade threshold.
	if !m.Dispatch(Event{Kind: EventBlockage, Station: id, AttenDB: 30, Duration: 300 * time.Millisecond}) {
		t.Fatal("blockage dropped")
	}
	if err := m.Step(ctx); err != nil {
		t.Fatal(err)
	}
	snap, _ = m.Snapshot(id)
	if snap.State != StateDegraded {
		t.Fatalf("after blockage: %+v, want degraded", snap)
	}
	if !snap.HasLink || snap.Sector != firstSector {
		t.Fatalf("degraded link lost its last usable sector: %+v", snap)
	}

	// Backoff (one epoch) expires, the blockage runs out, and the
	// retrain restores tracking.
	deadline := 10
	for ; deadline > 0; deadline-- {
		if err := m.Step(ctx); err != nil {
			t.Fatal(err)
		}
		snap, _ = m.Snapshot(id)
		if snap.State == StateTracking {
			break
		}
	}
	if snap.State != StateTracking {
		t.Fatalf("link never recovered: %+v", snap)
	}
	if snap.Rounds < 2 {
		t.Errorf("recovery should have taken a second training round, got %d", snap.Rounds)
	}
}

// TestRetrainStaleness checks that a quietly tracking link retrains once
// the staleness interval elapses.
func TestRetrainStaleness(t *testing.T) {
	m, _ := testFleet(t, WithShards(1), WithSeed(3),
		WithEpoch(100*time.Millisecond), WithRetrainInterval(300*time.Millisecond))
	ctx := context.Background()
	m.Arrive(Event{Kind: EventArrival, Station: 7, AzDeg: 20, ElDeg: 8, DistM: 2})
	for i := 0; i < 6; i++ {
		if err := m.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := m.Snapshot(7)
	if snap.Rounds < 2 {
		t.Fatalf("stale link trained %d rounds over 600ms with a 300ms interval", snap.Rounds)
	}
}

// TestDispatchBackpressure checks the bounded queue: overflow events are
// dropped, not blocked on.
func TestDispatchBackpressure(t *testing.T) {
	m, _ := testFleet(t, WithShards(1), WithQueueDepth(2))
	ev := Event{Kind: EventFault, Station: 1, LossFrac: 1}
	if !m.Dispatch(ev) || !m.Dispatch(ev) {
		t.Fatal("queue rejected events below its depth")
	}
	if m.Dispatch(ev) {
		t.Fatal("queue accepted an event beyond its depth")
	}
}

// TestDepartureWithPendingRound checks that a station departing between
// its request being queued and served is skipped cleanly.
func TestDepartureWithPendingRound(t *testing.T) {
	// Capacity 0 over two stations would serve both in the arrival
	// epoch; capacity 1 leaves one pending across the boundary.
	m, _ := testFleet(t, WithShards(1), WithCapacity(1), WithSeed(5))
	ctx := context.Background()
	m.Arrive(Event{Kind: EventArrival, Station: 1, AzDeg: -30, ElDeg: 5, DistM: 3})
	m.Arrive(Event{Kind: EventArrival, Station: 2, AzDeg: 30, ElDeg: 5, DistM: 3})
	if err := m.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", m.Pending())
	}
	// Depart whichever station is still waiting.
	waiting := StationID(2)
	if snap, _ := m.Snapshot(1); inFlight(snap.State) {
		waiting = 1
	}
	if !m.Depart(waiting) {
		t.Fatal("departure rejected")
	}
	if err := m.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after serving, want 0", m.Pending())
	}
	if _, ok := m.Snapshot(waiting); ok {
		t.Fatal("departed station still present")
	}
}

// TestStepContext checks that a canceled context aborts Step.
func TestStepContext(t *testing.T) {
	m, _ := testFleet(t, WithShards(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Step(ctx); err == nil {
		t.Fatal("Step ignored a canceled context")
	}
}

// TestBatchFunnelOnly enforces the service contract in source: the fleet
// package reaches estimation exclusively through the batch funnel
// (SelectSectorBatch, or SelectSectorBatchInto, the same pass writing
// into a reused result buffer) — no call site may use the per-link
// SelectSector entry points.
func TestBatchFunnelOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, file, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if strings.HasPrefix(name, "SelectSector") && name != "SelectSectorBatch" && name != "SelectSectorBatchInto" {
				t.Errorf("%s: %s bypasses the batch estimation funnel", fset.Position(sel.Pos()), name)
			}
			if name == "SweepSelect" || name == "SelectShards" {
				t.Errorf("%s: %s bypasses the batch estimation funnel", fset.Position(sel.Pos()), name)
			}
			return true
		})
	}
}

// TestAscendingMatchesSort checks the bitset walk that orders a round's
// probe sample against slices.Sort on random samples of every size from
// codebooks of 1 to 200 sectors (one to four words), and that the walk
// leaves its bitset clear for the next round.
func TestAscendingMatchesSort(t *testing.T) {
	rng := stats.NewRNG(29)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(200)
		idx := rng.SampleInto(nil, n, 1+rng.Intn(n))
		want := slices.Clone(idx)
		slices.Sort(want)
		set := make([]uint64, (n+63)/64)
		ascending(idx, set)
		if !slices.Equal(idx, want) {
			t.Fatalf("n=%d: bitset order %v, sorted %v", n, idx, want)
		}
		if slices.ContainsFunc(set, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("n=%d: bitset not cleared: %x", n, set)
		}
	}
}
