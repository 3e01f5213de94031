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
//   - the live slots are exactly the non-free ones, the free list names
//     every other slot once, and the slot table holds every live slot
//     once, in a cell its ID's lookup reaches; the table is a power of
//     two at least twice the station count and, past its first 16
//     cells, at most four cells per slot;
//   - the pending gauge moved by exactly len(pending) since pendingBase,
//     and every station with a round in flight has a pending request;
//   - the last scan's visit set is strictly ascending by station ID (no
//     station visited twice);
//   - the timer slice is a min-heap on fire epoch whose capacity is at
//     most that of the slot slices. A station has an entry exactly when
//     it is armed (tracking or degraded), the entry fires at
//     fireEpoch of its deadline and its tpos names the entry;
//   - every station is due for a visit (on its shard's due list), or is
//     tracked, unflagged and quiet with an open accrual window not past
//     the shard cursor; idle and impaired stations and degrade-always
//     trackers are always due, and only quiet trackers have an open
//     accrual window;
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
	live, err := checkSlots(sh)
	if err != nil {
		return 0, err
	}
	for i := 1; i < len(sh.visit); i++ {
		if sh.visit[i-1].id >= sh.visit[i].id {
			return 0, fmt.Errorf("visit set out of order or repeated at station %d", sh.visit[i].id)
		}
	}
	if err := m.checkTimers(sh); err != nil {
		return 0, err
	}
	if err := m.checkShardBuffers(sh); err != nil {
		return 0, err
	}
	due := make(map[int32]bool, len(sh.due))
	for _, slot := range sh.due {
		due[slot] = true
	}
	for i := range sh.hot {
		slot, st, h := int32(i), &sh.recs[i], &sh.hot[i]
		if h.state == stateFree {
			continue
		}
		id := st.id
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
			if !due[slot] && (!st.accruing || st.accrueFrom > sh.cursor) {
				return 0, fmt.Errorf("quiet tracked station %d: due %v, window open %v from %d (cursor %d)",
					id, due[slot], st.accruing, st.accrueFrom, sh.cursor)
			}
		case st.accruing:
			return 0, fmt.Errorf("station %d (%v, flags %#x) has an open accrual window", id, h.state, h.flags)
		case h.state == StateIdle || h.flags != 0 || h.state == StateTracking:
			if !due[slot] {
				return 0, fmt.Errorf("station %d (%v, flags %#x) is not due for a visit", id, h.state, h.flags)
			}
		}
		if inFlight(h.state) && !queued[id] {
			return 0, fmt.Errorf("station %d is %v with no pending request", id, h.state)
		}
	}
	return live, nil
}

// checkSlots holds shard sh's free list and slot table to its records
// (shard lock held) and returns the live station count.
func checkSlots(sh *shard) (int, error) {
	freed := make([]bool, len(sh.hot))
	for _, slot := range sh.free {
		if slot < 0 || int(slot) >= len(sh.hot) || freed[slot] || sh.hot[slot].state != stateFree {
			return 0, fmt.Errorf("free list names slot %d twice, out of range or live", slot)
		}
		freed[slot] = true
	}
	live := 0
	for slot := range sh.hot {
		if sh.hot[slot].state != stateFree {
			live++
		} else if !freed[slot] {
			return 0, fmt.Errorf("free slot %d is not on the free list", slot)
		}
	}
	cells := len(sh.table)
	if (cells == 0) != (len(sh.hot) == 0) || cells&(cells-1) != 0 || 2*live > cells ||
		cells > max(minTableCells, 4*len(sh.hot)) {
		return 0, fmt.Errorf("slot table of %d cells for %d stations in %d slots", cells, live, len(sh.hot))
	}
	entries := 0
	for i, c := range sh.table {
		if c == 0 {
			continue
		}
		entries++
		if c < 1 || int(c) > len(sh.recs) || sh.hot[c-1].state == stateFree {
			return 0, fmt.Errorf("table cell %d names slot %d, which holds no station", i, c-1)
		}
		if id := sh.recs[c-1].id; sh.cellOf(id) != i {
			return 0, fmt.Errorf("table cell %d holds station %d, whose lookup ends at cell %d", i, id, sh.cellOf(id))
		}
	}
	if entries != live {
		return 0, fmt.Errorf("slot table holds %d entries for %d stations", entries, live)
	}
	return live, nil
}

// checkTimers holds shard sh's timer heap to one entry per armed station
// at its deadline's fire epoch (shard lock held).
func (m *Manager) checkTimers(sh *shard) error {
	if cap(sh.timers) > cap(sh.hot) {
		return fmt.Errorf("timer heap has capacity %d for room of %d slots", cap(sh.timers), cap(sh.hot))
	}
	for i, t := range sh.timers {
		if i > 0 && sh.timers[(i-1)/2].fire > t.fire {
			return fmt.Errorf("timer heap order broken at entry %d", i)
		}
		if t.slot < 0 || int(t.slot) >= len(sh.hot) || sh.hot[t.slot].tpos != int32(i+1) {
			return fmt.Errorf("timer entry %d names slot %d, whose heap position does not name it", i, t.slot)
		}
		if h := &sh.hot[t.slot]; !armed(h) || m.fireEpoch(h.deadline) != t.fire {
			return fmt.Errorf("timer entry %d fires at epoch %d for a %v station due at epoch %d",
				i, t.fire, h.state, m.fireEpoch(h.deadline))
		}
	}
	for slot := range sh.hot {
		if h := &sh.hot[slot]; armed(h) != (h.tpos != 0) {
			return fmt.Errorf("slot %d: %v station at timer heap position %d", slot, h.state, h.tpos)
		}
	}
	return nil
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
