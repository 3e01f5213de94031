package fleet

import (
	"fmt"
	"testing"
)

// checkInvariants verifies the manager's structural invariants between
// Steps. pendingBase is the fleet_pending_trainings gauge reading taken
// when the manager was built (the gauge is process-global). It returns
// the station count it saw, so a caller with no concurrent churn can
// hold it to Len().
//
// The invariants:
//   - every shard index entry names a live slot holding that station,
//     and the live slots are exactly the non-free ones;
//   - the pending gauge moved by exactly len(pending) since pendingBase,
//     and every station with a round in flight has a pending request;
//   - the last scan's visit set is strictly ascending by station ID (no
//     station visited twice);
//   - every station is due for a visit (on its shard's due list), or is
//     tracked, unflagged and quiet with an open accrual window not past
//     the shard cursor and a live timer-heap entry at its deadline's
//     fire epoch; idle and impaired stations and degrade-always
//     trackers are always due;
//   - every degraded station has a live timer-heap entry, and only quiet
//     trackers have an open accrual window;
//   - the timer slice is a min-heap on fire epoch;
//   - the hot impairment flags match the cold fields they summarize:
//     flagDrift ⟺ a nonzero drift rate, flagBlocked ⟺ blockage epochs
//     left, and while the cached serving gain is valid, flagRecheck ⟺
//     that gain is NaN;
//   - no shard queues more than queueDepth events, and no event buffer
//     has room for more;
//   - the request list and both event buffers of every shard hold at
//     most 4 × max(their use in the last Step, trimFloor) capacity. The
//     Step leaves their use readable as lengths; the due list, visit
//     set and pending queue lose it once the Step is done with them, so
//     TestScanScratchShrinksAfterBurst checks those by capacity.
func (m *Manager) checkInvariants(pendingBase int64) (int, error) {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	if got, want := metPending.Value()-pendingBase, int64(len(m.pending)); got != want {
		return 0, fmt.Errorf("fleet_pending_trainings moved by %d, pending queue holds %d", got, want)
	}
	queued := make(map[StationID]bool, len(m.pending))
	for _, r := range m.pending {
		queued[r.id] = true
	}
	total := 0
	for i, sh := range m.shards {
		n, err := m.checkShard(sh, queued)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		total += n
	}
	return total, nil
}

func (m *Manager) checkShard(sh *shard, queued map[StationID]bool) (int, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.recs) != len(sh.hot) {
		return 0, fmt.Errorf("%d cold records, %d hot records", len(sh.recs), len(sh.hot))
	}
	live := 0
	for slot := range sh.hot {
		if sh.hot[slot].state != stateFree {
			live++
		}
	}
	if live != len(sh.index) || live+len(sh.free) != len(sh.hot) {
		return 0, fmt.Errorf("index holds %d stations, %d live slots, %d free of %d", len(sh.index), live, len(sh.free), len(sh.hot))
	}
	for i := 1; i < len(sh.visit); i++ {
		if sh.visit[i-1].id >= sh.visit[i].id {
			return 0, fmt.Errorf("visit set out of order or repeated at station %d", sh.visit[i].id)
		}
	}
	for i := 1; i < len(sh.timers); i++ {
		if sh.timers[(i-1)/2].fire > sh.timers[i].fire {
			return 0, fmt.Errorf("timer heap order broken at entry %d", i)
		}
	}
	if err := m.checkShardBuffers(sh); err != nil {
		return 0, err
	}
	due := make(map[int32]bool, len(sh.due))
	for _, slot := range sh.due {
		due[slot] = true
	}
	timed := make(map[int32]bool, len(sh.timers))
	for _, t := range sh.timers {
		if h := &sh.hot[t.slot]; armed(h) && m.fireEpoch(h.deadline) == t.fire {
			timed[t.slot] = true
		}
	}
	for id, slot := range sh.index {
		st, h := &sh.recs[slot], &sh.hot[slot]
		if st.id != id {
			return 0, fmt.Errorf("index maps station %d to slot %d holding %d", id, slot, st.id)
		}
		if drift := st.driftDegPerSec != 0; drift != (h.flags&flagDrift != 0) {
			return 0, fmt.Errorf("station %d: drift %g°/s, flags %#x", id, st.driftDegPerSec, h.flags)
		}
		if blocked := st.blockEpochsLeft > 0; blocked != (h.flags&flagBlocked != 0) {
			return 0, fmt.Errorf("station %d: %d blockage epochs left, flags %#x", id, st.blockEpochsLeft, h.flags)
		}
		if recheck := st.curGain != st.curGain; st.gainValid && recheck != (h.flags&flagRecheck != 0) {
			return 0, fmt.Errorf("station %d: cached serving gain %g, flags %#x", id, st.curGain, h.flags)
		}
		quiet := h.state == StateTracking && h.flags == 0 && m.cfg.degradeDropDB >= 0
		switch {
		case quiet:
			if !due[slot] && (!st.accruing || st.accrueFrom > sh.cursor || !timed[slot]) {
				return 0, fmt.Errorf("quiet tracked station %d: due %v, window open %v from %d (cursor %d), live timer %v",
					id, due[slot], st.accruing, st.accrueFrom, sh.cursor, timed[slot])
			}
		case st.accruing:
			return 0, fmt.Errorf("station %d (%v, flags %#x) has an open accrual window", id, h.state, h.flags)
		case h.state == StateIdle || h.flags != 0 || h.state == StateTracking:
			if !due[slot] {
				return 0, fmt.Errorf("station %d (%v, flags %#x) is not due for a visit", id, h.state, h.flags)
			}
		}
		if h.state == StateDegraded && !timed[slot] {
			return 0, fmt.Errorf("degraded station %d has no live timer", id)
		}
		if inFlight(h.state) && !queued[id] {
			return 0, fmt.Errorf("station %d is %v with no pending request", id, h.state)
		}
	}
	return live, nil
}

// checkShardBuffers holds shard sh's event buffers to the queue depth
// and its request list and event buffers to the trim rule (shard lock
// held). The request list and the drained events are the last scan's
// use; the fresh queue was trimmed by the drained count and may have
// grown since by Dispatch, whose doubling keeps it within the rule.
func (m *Manager) checkShardBuffers(sh *shard) error {
	sh.qmu.Lock()
	queued, queueCap := len(sh.events), cap(sh.events)
	sh.qmu.Unlock()
	depth := m.cfg.queueDepth
	if queued > depth || queueCap > depth || cap(sh.drain) > depth {
		return fmt.Errorf("%d queued events, buffer capacities %d and %d, depth %d", queued, queueCap, cap(sh.drain), depth)
	}
	for _, b := range []struct {
		name          string
		capacity, use int
	}{
		{"reqs", cap(sh.reqs), len(sh.reqs)},
		{"drain", cap(sh.drain), len(sh.drain)},
		{"events", queueCap, max(queued, len(sh.drain))},
	} {
		if bound := 4 * max(b.use, trimFloor); b.capacity > bound {
			return fmt.Errorf("%s has capacity %d after a Step that used %d entries, want <= %d", b.name, b.capacity, b.use, bound)
		}
	}
	return nil
}

// invariantChecker runs checkInvariants after each Step of one manager.
// It reads the pending gauge baseline at construction, so it must be
// built before the manager's first Step and no other manager may queue
// rounds while it is in use.
type invariantChecker struct {
	m           *Manager
	pendingBase int64
	// concurrent skips the Len() cross-check, which Arrive/Depart calls
	// racing the check would falsify.
	concurrent bool
}

func newInvariantChecker(m *Manager) *invariantChecker {
	return &invariantChecker{m: m, pendingBase: metPending.Value()}
}

func (c *invariantChecker) check(t testing.TB) {
	t.Helper()
	if err := c.err(); err != nil {
		t.Fatal(err)
	}
}

func (c *invariantChecker) err() error {
	n, err := c.m.checkInvariants(c.pendingBase)
	if err != nil {
		return err
	}
	if !c.concurrent {
		if l := c.m.Len(); l != n {
			return fmt.Errorf("Len() = %d, shard indexes hold %d", l, n)
		}
	}
	return nil
}
