package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"
)

// cancelAfterTrainings is a context that reports cancellation once the
// process has applied at least n more training rounds than at base — a
// cancel that lands between two serve batches of one Step.
type cancelAfterTrainings struct {
	context.Context
	base, n int64
}

func (c *cancelAfterTrainings) Err() error {
	if metTrainings.Value()-c.base >= c.n {
		return context.Canceled
	}
	return nil
}

// arriveSpread arrives n stations with IDs 0..n-1 spread across the
// azimuth span.
func arriveSpread(t *testing.T, m *Manager, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		az := -60 + 120*float64(i)/float64(n)
		if !m.Arrive(Event{Kind: EventArrival, Station: StationID(i), AzDeg: az, ElDeg: 8, DistM: 3}) {
			t.Fatalf("arrival %d rejected", i)
		}
	}
}

// TestCancelledStepCommitsEpoch is the regression test for a Step whose
// serve phase is cancelled: the applied batch must leave the pending
// queue and the epoch must still advance, so the next Step neither
// rescans the epoch (double-counting tracked epochs, ticking blockages
// twice) nor re-serves applied rounds as skipped ones. serveChunk+5
// arrivals make the Step serve two batches; the cancel lands after the
// first.
func TestCancelledStepCommitsEpoch(t *testing.T) {
	m, _ := testFleet(t, WithShards(2), WithSeed(4), WithBatchWorkers(1))
	inv := newInvariantChecker(m)
	const n = serveChunk + 5
	arriveSpread(t, m, n)
	ctx := &cancelAfterTrainings{Context: context.Background(), base: metTrainings.Value(), n: serveChunk}
	if err := m.Step(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Step returned %v, want context.Canceled", err)
	}
	inv.check(t)
	if got, want := m.Now(), 100*time.Millisecond; got != want {
		t.Fatalf("clock after the cancelled Step = %v, want %v", got, want)
	}
	if got := m.Pending(); got != n-serveChunk {
		t.Fatalf("pending after the cancelled Step = %d, want %d (one batch applied)", got, n-serveChunk)
	}

	if err := m.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	inv.check(t)
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after the follow-up Step, want 0", m.Pending())
	}
	sc := m.scorecard(SimConfig{}, 0)
	if sc.Epochs != 2 || sc.Trainings != n || sc.Skipped != 0 {
		t.Fatalf("epochs %d, trainings %d, skipped %d; want 2, %d, 0", sc.Epochs, sc.Trainings, sc.Skipped, n)
	}
	// The rounds applied in epoch 0 track through epoch 1 only (unless
	// they failed and degraded); nothing tracks in epoch 0 itself.
	if sc.TrackedEpochs > serveChunk {
		t.Fatalf("tracked epochs %d after two epochs with %d early adopters, want <= %d", sc.TrackedEpochs, serveChunk, serveChunk)
	}
}

// TestServeScratchBoundedByChunk holds the serve scratch to serveChunk
// rounds: a burst Step that trains more than two batches' worth of
// stations leaves the probe arena at <= serveChunk x M probes and the
// batch item, live-index and result buffers at <= serveChunk entries.
func TestServeScratchBoundedByChunk(t *testing.T) {
	m, _ := testFleet(t, WithShards(4), WithSeed(6), WithBatchWorkers(1))
	const n = 2*serveChunk + 37
	arriveSpread(t, m, n)
	before := metTrainings.Value()
	if err := m.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := metTrainings.Value() - before; got != n {
		t.Fatalf("burst Step trained %d stations, want %d", got, n)
	}
	if got, bound := cap(m.arena), serveChunk*m.cfg.probeBudget; got > bound {
		t.Fatalf("cap(arena) = %d probes, want <= %d", got, bound)
	}
	for _, c := range []struct {
		name string
		cap  int
	}{
		{"items", cap(m.items)},
		{"live", cap(m.live)},
		{"results", cap(m.results)},
	} {
		if c.cap > serveChunk {
			t.Errorf("cap(%s) = %d, want <= %d", c.name, c.cap, serveChunk)
		}
	}
}

// TestScorecardAfterLateDeparture checks lazy accrual across a read: a
// quietly tracked station that departs after the last Step has still
// been tracked through every scanned epoch, so the scorecard must match
// a run where it stays, and reading the scorecard twice must not book
// any epoch twice.
func TestScorecardAfterLateDeparture(t *testing.T) {
	run := func(depart bool) *Scorecard {
		m, _ := testFleet(t, WithShards(2), WithSeed(8), WithRetrainInterval(time.Hour), WithLossSampleStride(3))
		inv := newInvariantChecker(m)
		for i := 0; i < 10; i++ {
			m.Arrive(Event{Kind: EventArrival, Station: StationID(i), AzDeg: -50 + 10*float64(i), ElDeg: 6, DistM: 2})
		}
		for e := 0; e < 9; e++ {
			if err := m.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
			inv.check(t)
		}
		if depart && !m.Depart(4) {
			t.Fatal("departure rejected")
		}
		if first, again := m.scorecard(SimConfig{}, 0), m.scorecard(SimConfig{}, 0); first.TrackedEpochs != again.TrackedEpochs ||
			first.TrackingLoss.Count != again.TrackingLoss.Count {
			t.Fatalf("second scorecard read changed tracked epochs %d -> %d, loss samples %d -> %d",
				first.TrackedEpochs, again.TrackedEpochs, first.TrackingLoss.Count, again.TrackingLoss.Count)
		}
		return m.scorecard(SimConfig{}, 0)
	}
	stay, gone := run(false), run(true)
	if stay.TrackedEpochs == 0 {
		t.Fatal("no tracked epochs booked")
	}
	if gone.TrackedEpochs != stay.TrackedEpochs || !reflect.DeepEqual(gone.TrackingLoss, stay.TrackingLoss) {
		t.Fatalf("late departure changed the scorecard: tracked epochs %d vs %d, tracking loss %+v vs %+v",
			gone.TrackedEpochs, stay.TrackedEpochs, gone.TrackingLoss, stay.TrackingLoss)
	}
}

// TestScanVisitsOnlyDueStations holds the event-driven scan to its cost
// model on a 131,072-station steady fleet: each epoch's visits (the
// fleet_scan_visits_total delta) may not exceed the stations that are
// impaired, idle, touched by an event or have a deadline firing —
// counted here independently from the station records.
func TestScanVisitsOnlyDueStations(t *testing.T) {
	n := 131072
	if raceEnabled || testing.Short() {
		n = 8192 // the full-size training wave is slow under the race detector
	}
	m, _ := testFleet(t, WithShards(256), WithSeed(5), WithBatchWorkers(1), WithRetrainInterval(24*time.Hour))
	inv := newInvariantChecker(m)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		az := -70 + 140*float64(i)/float64(n)
		if !m.Arrive(Event{Kind: EventArrival, Station: StationID(i), AzDeg: az, ElDeg: 10, DistM: 3}) {
			t.Fatalf("arrival %d rejected", i)
		}
	}
	for i := 0; i < 3; i++ {
		if err := m.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	inv.check(t)

	next := StationID(n)
	var total int64
	for e := 0; e < 12; e++ {
		var evs []Event
		if e%3 == 0 { // every third epoch is quiet
			s := StationID(7919 * (e + 1) % n)
			evs = append(evs,
				Event{Kind: EventMobility, Station: s, DriftDegPerSec: 4},
				Event{Kind: EventMobility, Station: s + 1}, // stops a drift that never started
				Event{Kind: EventBlockage, Station: s + 2, AttenDB: 25, Duration: 300 * time.Millisecond},
				Event{Kind: EventFault, Station: s + 3, LossFrac: 0.8},
				Event{Kind: EventDeparture, Station: s + 4},
				Event{Kind: EventArrival, Station: next, AzDeg: 12, ElDeg: 6, DistM: 2},
			)
			next++
		}
		bound := m.dueStations(evs)
		for _, ev := range evs {
			if !m.Dispatch(ev) {
				t.Fatal("event dropped")
			}
		}
		before := metScanVisits.Value()
		if err := m.Step(ctx); err != nil {
			t.Fatal(err)
		}
		inv.check(t)
		visits := metScanVisits.Value() - before
		if visits > int64(bound) {
			t.Fatalf("epoch %d: scan visited %d stations, only %d were impaired, idle, evented or due", e, visits, bound)
		}
		total += visits
	}
	t.Logf("%d stations, %d visits over 12 epochs", n, total)
	if limit := int64(n / 100); total > limit {
		t.Fatalf("12 epochs visited %d stations of %d, want under %d", total, n, limit)
	}
}

// dueStations counts the distinct stations the next Step may visit: the
// targets of evs plus every station that is impaired, idle, tracking
// under a degrade-always threshold, or tracked/degraded with its
// deadline firing in the next epoch.
func (m *Manager) dueStations(evs []Event) int {
	m.stepMu.Lock()
	epoch := m.epoch
	m.stepMu.Unlock()
	due := make(map[StationID]bool)
	for _, ev := range evs {
		due[ev.Station] = true
	}
	for _, sh := range m.shards {
		sh.mu.Lock()
		for slot := range sh.hot {
			st, h := &sh.recs[slot], &sh.hot[slot]
			if h.state == stateFree {
				continue
			}
			timed := armed(h) && m.fireEpoch(h.deadline) <= epoch
			if h.flags != 0 || h.state == StateIdle || timed || (h.state == StateTracking && m.cfg.degradeDropDB < 0) {
				due[st.id] = true
			}
		}
		sh.mu.Unlock()
	}
	return len(due)
}

// TestScanScratchShrinksAfterBurst checks that a burst leaves no
// burst-sized scratch behind, and that trimming changes nothing the
// fleet does. 4,096 arrivals and two Steps of 3,000 queued events each
// grow the pending queue and every shard's request list, visit set, due
// list and both event buffers; after the first quiet Step every shard
// buffer is back under 4 × trimFloor entries, and so is the pending
// queue once its rounds are served. checkInvariants holds the request
// lists and event buffers to the trim rule after every Step. A training
// capacity of 500 rounds per Step keeps rounds queued while the pending
// queue is trimmed. Pending() after every Step, the final scorecard and
// every station must match a run whose buffers are replaced after each
// Step by exact-size copies, which carry no burst-sized history.
func TestScanScratchShrinksAfterBurst(t *testing.T) {
	const n, events = 4096, 3000
	type outcome struct {
		pending   []int
		scorecard []byte
		stations  []Snapshot
	}
	run := func(clip bool) outcome {
		m, _ := testFleet(t, WithShards(4), WithSeed(12), WithBatchWorkers(1),
			WithCapacity(500), WithRetrainInterval(time.Hour))
		inv := newInvariantChecker(m)
		ctx := context.Background()
		arriveSpread(t, m, n)
		var out outcome
		trimmedWithLeftover := false
		for e := 0; e < 12; e++ {
			// A drift-stopping mobility event puts its station on the due
			// list and changes nothing else, so the quiet epochs stay
			// quiet.
			if e < 2 {
				for i := 0; i < events; i++ {
					if !m.Dispatch(Event{Kind: EventMobility, Station: StationID(i)}) {
						t.Fatalf("event %d dropped", i)
					}
				}
			}
			for i := 0; e >= 2 && i < 8; i++ {
				m.Dispatch(Event{Kind: EventMobility, Station: StationID((131*e + 17*i) % n)})
			}
			before := cap(m.pending)
			if err := m.Step(ctx); err != nil {
				t.Fatal(err)
			}
			inv.check(t)
			if cap(m.pending) < before && len(m.pending) > 0 {
				trimmedWithLeftover = true
			}
			switch {
			case clip:
				m.clipScratch()
			case e == 0:
				for i, sh := range m.shards {
					if cap(sh.visit) < n/8 || cap(sh.drain) < events/8 {
						t.Fatalf("shard %d: burst Step left visit capacity %d, drain %d; the burst did not reach it", i, cap(sh.visit), cap(sh.drain))
					}
				}
			case e == 2:
				for i, sh := range m.shards {
					for name, c := range map[string]int{
						"reqs": cap(sh.reqs), "visit": cap(sh.visit), "due": cap(sh.due),
						"drain": cap(sh.drain), "events": cap(sh.events),
					} {
						if c > 4*trimFloor {
							t.Errorf("shard %d: %s keeps capacity %d after the first quiet Step, want <= %d", i, name, c, 4*trimFloor)
						}
					}
				}
			}
			out.pending = append(out.pending, m.Pending())
		}
		if !clip && !trimmedWithLeftover {
			t.Error("the pending queue was never trimmed while holding queued rounds")
		}
		if c := cap(m.pending); !clip && c > 4*trimFloor {
			t.Errorf("pending queue keeps capacity %d after its rounds were served, want <= %d", c, 4*trimFloor)
		}
		if out.pending[len(out.pending)-1] != 0 {
			t.Fatalf("%d rounds still pending after 12 Steps", out.pending[len(out.pending)-1])
		}
		var err error
		if out.scorecard, err = json.Marshal(m.scorecard(SimConfig{}, 0)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			snap, _ := m.Snapshot(StationID(i))
			out.stations = append(out.stations, snap)
		}
		return out
	}
	got, want := run(false), run(true)
	if !reflect.DeepEqual(got.pending, want.pending) {
		t.Fatalf("Pending() per Step %v, exact-size run %v", got.pending, want.pending)
	}
	if string(got.scorecard) != string(want.scorecard) {
		t.Fatalf("scorecard differs from the exact-size run:\n%s\n%s", got.scorecard, want.scorecard)
	}
	for i := range got.stations {
		if got.stations[i] != want.stations[i] {
			t.Fatalf("station %d: %+v, exact-size run %+v", i, got.stations[i], want.stations[i])
		}
	}
}

// clipScratch replaces every trimmed buffer with an exact-size copy of
// its contents.
func (m *Manager) clipScratch() {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	m.pending = slices.Clip(slices.Clone(m.pending))
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.reqs = slices.Clip(slices.Clone(sh.reqs))
		sh.visit = slices.Clip(slices.Clone(sh.visit))
		sh.due = slices.Clip(slices.Clone(sh.due))
		sh.drain = slices.Clip(slices.Clone(sh.drain))
		sh.qmu.Lock()
		sh.events = slices.Clip(slices.Clone(sh.events))
		sh.qmu.Unlock()
		sh.mu.Unlock()
	}
}
