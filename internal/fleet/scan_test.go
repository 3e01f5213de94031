package fleet

import (
	"context"
	"errors"
	"reflect"
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
		for _, slot := range sh.index {
			st, h := &sh.recs[slot], &sh.hot[slot]
			timed := armed(h) && m.fireEpoch(h.deadline) <= epoch
			if h.flags != 0 || h.state == StateIdle || timed || (h.state == StateTracking && m.cfg.degradeDropDB < 0) {
				due[st.id] = true
			}
		}
		sh.mu.Unlock()
	}
	return len(due)
}
