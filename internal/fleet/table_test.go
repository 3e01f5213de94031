package fleet

import (
	"testing"

	"talon/internal/stats"
)

// TestSlotTableChurn drives one shard's slot table through random
// arrivals and departures of IDs that all share the shard's low bits,
// over a population that grows past several table doublings and then
// drains. After every operation the table must match the records and
// the free list, and every ID's lookup must agree with a map model, so
// a backward shift that strands an entry before its home cell shows at
// once.
func TestSlotTableChurn(t *testing.T) {
	m, _ := testFleet(t, WithShards(4))
	sh := m.shards[0]
	rng := stats.NewRNG(3)
	live := map[StationID]bool{}
	peak := 0
	const ops = 6000
	for op := 0; op < ops; op++ {
		// The candidate range widens for the first two thirds, so the
		// population grows, then arrivals thin out and it drains.
		span := 8 + min(op, 2*ops/3)/8
		id := StationID(rng.Intn(span)) << 2
		arrive := !live[id]
		if op > 2*ops/3 && arrive && rng.Bool(0.8) {
			continue
		}
		if arrive {
			if !m.Arrive(Event{Kind: EventArrival, Station: id, DistM: 3}) {
				t.Fatalf("op %d: arrival of station %d rejected", op, id)
			}
			live[id] = true
			peak = max(peak, len(live))
		} else {
			if !m.Depart(id) {
				t.Fatalf("op %d: departure of station %d rejected", op, id)
			}
			delete(live, id)
		}
		n, err := checkSlots(sh)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if n != len(live) {
			t.Fatalf("op %d: shard holds %d stations, model %d", op, n, len(live))
		}
		for probe := StationID(0); probe < StationID(span); probe++ {
			pid := probe << 2
			if slot, ok := sh.lookup(pid); ok != live[pid] || ok && sh.recs[slot].id != pid {
				t.Fatalf("op %d: lookup of station %d found %v (slot %d), model %v", op, pid, ok, slot, live[pid])
			}
		}
	}
	if len(sh.table) < 512 || 2*len(live) > peak {
		t.Fatalf("churn too narrow: table reached %d cells, %d of at most %d stations left", len(sh.table), len(live), peak)
	}
}
