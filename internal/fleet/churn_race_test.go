package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentChurn hammers the manager with concurrent arrivals,
// departures and dispatches across shards while Step runs — the -race
// proof that the shard locking holds up. Outcomes are not asserted
// deterministic here (the interleaving is real concurrency); the
// invariants checked are the manager's structural ones after every
// Step (see checkInvariants) and that its population matches what the
// churners did.
func TestConcurrentChurn(t *testing.T) {
	m, _ := testFleet(t, WithShards(8), WithSeed(99), WithQueueDepth(64))
	ctx := context.Background()
	inv := newInvariantChecker(m)
	inv.concurrent = true

	const churners = 4
	const perChurner = 150
	var alive atomic.Int64
	stop := make(chan struct{})

	// Stepper: keeps epochs rolling while the churners run.
	var stepper sync.WaitGroup
	stepper.Add(1)
	go func() {
		defer stepper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Step(ctx); err != nil {
				t.Error(err)
				return
			}
			if err := inv.err(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var churn sync.WaitGroup
	for c := 0; c < churners; c++ {
		churn.Add(1)
		go func(c int) {
			defer churn.Done()
			base := StationID(c * 1000000)
			for i := 0; i < perChurner; i++ {
				id := base + StationID(i)
				if m.Arrive(Event{Kind: EventArrival, Station: id,
					AzDeg: -60 + float64(i%120), ElDeg: float64(i % 25), DistM: 2}) {
					alive.Add(1)
				}
				m.Dispatch(Event{Kind: EventMobility, Station: id, DriftDegPerSec: 5})
				m.Dispatch(Event{Kind: EventBlockage, Station: id, AttenDB: 10,
					Duration: 100 * time.Millisecond})
				if i%3 == 0 {
					if m.Depart(id) {
						alive.Add(-1)
					}
				}
			}
		}(c)
	}
	churn.Wait()
	close(stop)
	stepper.Wait()

	// Settle remaining queued events and in-flight rounds.
	inv.concurrent = false
	for i := 0; i < 5; i++ {
		if err := m.Step(ctx); err != nil {
			t.Fatal(err)
		}
		inv.check(t)
	}
	if got, want := m.Len(), int(alive.Load()); got != want {
		t.Fatalf("population %d, want %d", got, want)
	}
}
