package fleet

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkStepScan times the steady-state epoch in isolation: the whole
// fleet is tracking, the retrain interval is pushed past the horizon,
// and churn is off, so no station has work due and a Step is the
// per-shard fixed cost — lock, queue drain, due-list and timer-heap
// checks, tally merge — with no station visited. It should not grow
// with the fleet: CI gates stations=131072 at ≥0.5× the speed of
// stations=16384 in the same run. ns/station shows the cost amortized
// over the fleet.
func BenchmarkStepScan(b *testing.B) {
	for _, n := range []int{16384, 131072} {
		b.Run(fmt.Sprintf("stations=%d", n), func(b *testing.B) {
			m, _ := testFleet(b,
				WithShards(256),
				WithSeed(5),
				WithBatchWorkers(1),
				WithRetrainInterval(24*time.Hour),
			)
			ctx := context.Background()
			for i := 0; i < n; i++ {
				az := -70 + 140*float64(i)/float64(n)
				if !m.Arrive(Event{Kind: EventArrival, Station: StationID(i), AzDeg: az, ElDeg: 10, DistM: 3}) {
					b.Fatalf("arrival %d rejected", i)
				}
			}
			// Drain the initial training wave so the timed steps carry
			// zero training rounds.
			for i := 0; i < 3; i++ {
				if err := m.Step(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Step(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/station")
		})
	}
}
