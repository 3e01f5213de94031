package fleet

import (
	"context"
	"runtime"
	"testing"
	"time"

	"talon/internal/core"
)

// TestScanZeroAllocSteadyState is the allocation-regression guard of
// the per-epoch scan: once the fleet is tracking and no deadline fires,
// a whole Step — shard scan over the hot slice, tally merge, empty
// serve — must not allocate at all. The retrain interval is pushed far
// out so steady-state epochs carry zero training rounds; batch workers
// are pinned to 1 so the scan runs serially (AllocsPerRun pins
// GOMAXPROCS to 1 anyway, and goroutine spawns would count).
func TestScanZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	m, _ := testFleet(t,
		WithShards(4),
		WithSeed(5),
		WithBatchWorkers(1),
		WithRetrainInterval(time.Hour),
	)
	ctx := context.Background()
	const n = 512
	for i := 0; i < n; i++ {
		az := -70 + 140*float64(i)/n
		if !m.Arrive(Event{Kind: EventArrival, Station: StationID(i), AzDeg: az, ElDeg: 10, DistM: 3}) {
			t.Fatalf("arrival %d rejected", i)
		}
	}
	// First steps train the whole fleet and warm every scratch (arena,
	// batch items, per-shard request lists, tally partials).
	for i := 0; i < 3; i++ {
		if err := m.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		snap, ok := m.Snapshot(StationID(i))
		if !ok || snap.State != StateTracking {
			t.Fatalf("station %d in state %v before steady state", i, snap.State)
		}
	}

	var stepErr error
	allocs := testing.AllocsPerRun(20, func() {
		stepErr = m.Step(ctx)
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f times per epoch, want 0", allocs)
	}
}

// TestNewAllocatesNoEventSlots checks that an empty fleet reserves no
// event storage: New with default options (256 shards, queue depth
// 1,024) allocates under 1 MiB. Queues grow only with the events
// dispatched to them; a preallocated queue per shard would cost
// 256 × 1,024 events, about 19 MB.
func TestNewAllocatesNoEventSlots(t *testing.T) {
	set := synthPatterns(t)
	est, err := core.NewEstimator(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(est, set)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.shards) != 256 || m.cfg.queueDepth != 1024 {
		t.Fatalf("defaults changed: %d shards, queue depth %d", len(m.shards), m.cfg.queueDepth)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("New allocated %d bytes, want under 1 MiB", got)
	}
}

// TestDispatchZeroAllocSteadyState extends the steady-state guard to
// the event path: once the shard queues and the scan scratch have grown
// to an epoch's traffic, dispatching that traffic and stepping the
// fleet allocates nothing.
func TestDispatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	m, _ := testFleet(t,
		WithShards(4),
		WithSeed(5),
		WithBatchWorkers(1),
		WithRetrainInterval(time.Hour),
	)
	ctx := context.Background()
	const n = 512
	arriveSpread(t, m, n)
	for i := 0; i < 3; i++ {
		if err := m.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// A drift-stopping mobility event leaves a quiet tracked station
	// quiet, so every epoch carries the same traffic: 300 events, about
	// 75 per shard, each putting its station on the visit set.
	var stepErr error
	epoch := func() {
		for i := 0; i < 300; i++ {
			if !m.Dispatch(Event{Kind: EventMobility, Station: StationID(i * 7 % n)}) {
				t.Fatal("event dropped below the queue depth")
			}
		}
		stepErr = m.Step(ctx)
	}
	for i := 0; i < 3; i++ {
		epoch()
		if stepErr != nil {
			t.Fatal(stepErr)
		}
	}
	allocs := testing.AllocsPerRun(20, epoch)
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state Dispatch and Step allocate %.1f times per epoch, want 0", allocs)
	}
}

// TestQueueReservedFromFirstStep checks the room every shard queue keeps
// from its first Step on: trimFloor events per shard, dispatched with no
// Step between them, allocate nothing, even on shards no event has
// reached before. The next event grows its queue to twice that.
func TestQueueReservedFromFirstStep(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	const shards = 4
	m, _ := testFleet(t, WithShards(shards), WithSeed(5), WithBatchWorkers(1))
	if err := m.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One pass only, so not AllocsPerRun: its warm-up run would queue a
	// second trimFloor events per shard.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < shards*trimFloor; i++ {
		if !m.Dispatch(Event{Kind: EventMobility, Station: StationID(i)}) {
			t.Fatalf("event %d dropped below the queue depth", i)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("dispatching %d events per shard after the first Step allocates %d times, want 0", trimFloor, n)
	}
	m.Dispatch(Event{Kind: EventMobility, Station: 0})
	if sh := m.shards[0]; len(sh.events) != trimFloor+1 || cap(sh.events) != 2*trimFloor {
		t.Fatalf("queue past its reserve: length %d, capacity %d, want %d and %d", len(sh.events), cap(sh.events), trimFloor+1, 2*trimFloor)
	}
}
