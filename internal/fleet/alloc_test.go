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

// TestTimerHeapBoundedBySlots is the regression gate of the timer heap:
// under fleet-scan's day-long retrain interval, a station that degrades
// and retrains rearms its deadline twice per cycle, and each rearm must
// move its one heap entry instead of leaving the old one to fire a day
// later. Blockages, probe-loss faults and churn that replaces departing
// stations with new IDs cycle through the fleet every epoch; once the
// buffers have seen that traffic, a run of Steps allocates nothing and
// no shard's heap has room for more entries than its slot slices have.
// These Steps serve training rounds: the warm-up runs at the default
// GOMAXPROCS and the measured Steps at AllocsPerRun's GOMAXPROCS 1, so
// the gate also holds the estimator's scratch free list to handing the
// warm-up's grown scratch back across the change.
func TestTimerHeapBoundedBySlots(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	m, _ := testFleet(t,
		WithShards(4),
		WithSeed(9),
		WithBatchWorkers(1),
		WithRetrainInterval(24*time.Hour),
	)
	ctx := context.Background()
	const n = 512
	arriveSpread(t, m, n)
	// ids[i] is the station at position i; churn replaces it with
	// ids[i]+n, which lands on the same shard and takes the freed slot.
	ids := make([]StationID, n)
	for i := range ids {
		ids[i] = StationID(i)
	}
	var (
		next     int
		stepErr  error
		outgrown bool
	)
	epoch := func() {
		for i := 0; i < 16; i++ {
			j := next % n
			next++
			m.Dispatch(Event{Kind: EventBlockage, Station: ids[j], AttenDB: 25, Duration: 200 * time.Millisecond})
			m.Dispatch(Event{Kind: EventFault, Station: ids[(j+n/2)%n], LossFrac: 0.9})
			if i < 2 {
				k := (j + n/4) % n
				m.Dispatch(Event{Kind: EventDeparture, Station: ids[k]})
				ids[k] += n
				m.Dispatch(Event{Kind: EventArrival, Station: ids[k], AzDeg: -60 + 120*float64(k)/n, ElDeg: 8, DistM: 3})
			}
		}
		stepErr = m.Step(ctx)
		for _, sh := range m.shards {
			outgrown = outgrown || cap(sh.timers) > cap(sh.hot)
		}
	}
	// Warm-up: the first Steps train the fleet, then two passes over
	// every station grow each buffer to the traffic.
	for i := 0; i < 2*n/16+8; i++ {
		epoch()
		if stepErr != nil {
			t.Fatal(stepErr)
		}
	}
	allocs := testing.AllocsPerRun(50, epoch)
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if outgrown {
		for i, sh := range m.shards {
			t.Logf("shard %d: timer heap has capacity %d (%d entries), slot slices %d (%d slots)",
				i, cap(sh.timers), len(sh.timers), cap(sh.hot), len(sh.hot))
		}
		t.Error("a shard's timer heap outgrew its slot slices")
	}
	if allocs != 0 {
		t.Errorf("Steps under degrade, fault and churn traffic allocate %.1f times per epoch, want 0", allocs)
	}
}

// TestStationFootprint holds the retained heap of 65,536 arrived stations
// (256 per shard) to a bytes-per-station bound. Records, slot table and
// the append slack of the record slices all count. With an ID map and a
// 144-byte cold record the fleet held 225 bytes per station; with the
// slot table and the 128-byte record it holds 163. The bound lies
// between the two.
func TestStationFootprint(t *testing.T) {
	const n, bound = 65536, 190
	m, _ := testFleet(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if !m.Arrive(Event{Kind: EventArrival, Station: StationID(i), AzDeg: float64(i%120 - 60), ElDeg: 8, DistM: 3}) {
			t.Fatalf("arrival %d rejected", i)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	perStation := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f bytes per station", perStation)
	if perStation > bound {
		t.Fatalf("%d stations hold %.1f bytes each, want <= %d", n, perStation, bound)
	}
}
