package fleet

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/stats"
)

// Step advances the fleet by one epoch of virtual time:
//
//  1. Every shard swaps out its event queue and applies the events,
//     then visits the stations with work due — arrivals, stations an
//     event touched, impaired stations and those whose deadline fires —
//     in ascending-ID order: advancing mobility drift, expiring
//     blockages, degrading links whose serving gain collapsed and
//     scheduling staleness/backoff retrains. Every other station is
//     quietly tracking (its tracked epochs accrue lazily) or has a round
//     in flight. Shards are scanned by a worker pool; each worker owns a
//     shard exclusively while scanning it, writing requests and tally
//     partials into shard-local scratch.
//  2. The per-shard request lists are concatenated in shard-index order
//     (deterministic regardless of which worker finished first) and
//     appended to the global FIFO pending queue.
//  3. Up to the configured capacity of pending rounds is served: probe
//     vectors are synthesized into a reused arena and pushed through
//     core.SelectSectorBatchInto serveChunk rounds at a time — the
//     single estimation funnel for the whole fleet — each round hinted
//     with its station's previous selection cell.
//  4. Outcomes are applied: successful selections adopt the sector and
//     transition to tracking; failures fall back to the probed argmax
//     and degrade. Virtual selection latency (queueing + training
//     airtime) and SNR loss versus the ground-truth best sector feed the
//     scorecard tally.
//
// Each scratch buffer is trimmed (see trimmed) once the Step has used
// it: the event buffers, due list, visit set and request list by their
// shard's scan, the pending queue at the end of the Step.
//
// A Step whose context is cancelled while serving still commits the
// epoch: the batches already applied leave the pending queue, the rest
// stay queued for the next Step, and the error is returned.
//
// Step serializes against itself but is safe alongside concurrent
// Arrive/Depart/Dispatch calls.
//
//talon:noalloc
func (m *Manager) Step(ctx context.Context) error {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now() //lint:allow determinism -- step-duration histogram reads the wall clock by design
	defer metStepSeconds.ObserveSince(start)
	metEpochs.Inc()

	epochStart := time.Duration(m.now.Load())
	epochEnd := epochStart + m.cfg.epoch

	// Phase 1+2: parallel shard scan, deterministic merge. Departures
	// book accruals into the partials concurrently, hence the lock.
	m.scanShards(epochStart, epochEnd)
	visits := 0
	for _, sh := range m.shards {
		m.pending = append(m.pending, sh.reqs...)
		visits += len(sh.visit)
		sh.mu.Lock()
		m.acc.merge(&sh.partial)
		sh.partial.reset()
		sh.mu.Unlock()
	}
	queued := len(m.pending)
	metScanVisits.Add(int64(visits))
	metScanSeconds.ObserveSince(start)

	// Phase 3+4: serve the head of the pending queue through the batch
	// estimation funnel.
	serve := len(m.pending)
	if m.cfg.capacity > 0 && serve > m.cfg.capacity {
		serve = m.cfg.capacity
	}
	served, err := m.serve(ctx, m.pending[:serve], epochEnd)
	n := copy(m.pending, m.pending[served:])
	m.pending = m.pending[:n]
	m.pending = trimmed(m.pending, queued)

	m.now.Store(int64(epochEnd))
	m.epoch++
	return err
}

// scanShards runs phase 1 over all shards with the scan worker pool.
func (m *Manager) scanShards(epochStart, epochEnd time.Duration) {
	workers := m.scanWorkers()
	if workers <= 1 {
		for i := range m.shards {
			m.scanShard(i, epochStart, epochEnd)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(m.shards) {
					return
				}
				m.scanShard(i, epochStart, epochEnd)
			}
		}()
	}
	wg.Wait()
}

// scanShard applies shard i's queued events and visits the stations with
// work due this epoch in ascending-ID order, trimming each scratch
// buffer once it is done with it. Holds the shard lock throughout so
// concurrent Arrive/Depart stay safe.
//
// The visit set is the due list (arrivals, stations the drained events
// touched, impaired stations and degrade-always trackers) plus the timer
// entries firing now. Every other station is skipped, which is exact,
// not approximate: a tracked station with no impairment flag under a
// nonnegative degrade threshold has both sides of the degrade check
// unchanged since the last visit or adoption (where it passed —
// otherwise the station would not be tracking), so until its deadline
// fires an epoch only adds one tracked epoch and, one epoch in stride,
// the same loss sample; settle books those in bulk. A degraded
// unimpaired station does nothing until its backoff timer fires, and a
// station with a round in flight does nothing until serve applies it.
//
//talon:noalloc
func (m *Manager) scanShard(i int, epochStart, epochEnd time.Duration) {
	sh := m.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.reqs = sh.reqs[:0]
	epochIx := m.epoch

	// Swap the queue for the buffer the last scan drained, then apply
	// the swapped-out events in FIFO order; events dispatched after the
	// swap apply next epoch. The fresh queue is trimmed by this epoch's
	// event count and reserved (see reserve). Every station an event
	// leaves in place lands on the due list.
	sh.qmu.Lock()
	sh.events, sh.drain = m.reserve(trimmed(sh.drain[:0], len(sh.events))), sh.events
	sh.qmu.Unlock()
	for _, ev := range sh.drain {
		m.applyEventLocked(sh, ev)
	}
	sh.drain = trimmed(sh.drain, len(sh.drain))

	vis := sh.visit[:0]
	for _, slot := range sh.due {
		if sh.hot[slot].state != stateFree {
			vis = append(vis, visitKey{id: sh.recs[slot].id, slot: slot})
		}
	}
	sh.due = trimmed(sh.due[:0], len(sh.due))
	for len(sh.timers) > 0 && sh.timers[0].fire <= epochIx {
		t := sh.dropTimer(0)
		vis = append(vis, visitKey{id: sh.recs[t.slot].id, slot: t.slot})
	}
	visitUse := len(vis) // duplicates included
	slices.SortFunc(vis, cmpVisit)
	vis = trimmed(slices.Compact(vis), visitUse)
	sh.visit = vis

	dt := epochEnd.Seconds() - epochStart.Seconds()
	stride := m.cfg.lossSampleStride
	// (id+epoch) % stride == 0  ⟺  id % stride == (stride - epoch%stride) % stride,
	// so the per-station sampling test is one compare against this
	// epoch-constant residue.
	want := uint32((stride - epochIx%stride) % stride)
	for _, v := range vis {
		st := &sh.recs[v.slot]
		m.settle(st, epochIx, &sh.partial)
		st.accruing = false
		m.scanStation(sh, v.slot, epochStart, epochEnd, dt, epochIx, want)
		m.park(sh, v.slot, epochIx+1)
	}
	sh.reqs = trimmed(sh.reqs, len(sh.reqs))
	sh.cursor = epochIx + 1
}

func cmpVisit(a, b visitKey) int { return cmp.Compare(a.id, b.id) }

// scanStation is the per-station epoch scan: mobility drift, blockage
// expiry and the state-machine actions for every lifecycle state.
//
//talon:noalloc
func (m *Manager) scanStation(sh *shard, slot int32, epochStart, epochEnd time.Duration, dt float64, epochIx uint64, want uint32) {
	st, h := &sh.recs[slot], &sh.hot[slot]
	// Mobility drift and blockage expiry happen for every station,
	// whatever its state.
	if h.flags&flagDrift != 0 {
		st.az = wrapAz(st.az + st.driftDegPerSec*dt)
		st.gainValid, st.bestValid = false, false
	}
	if h.flags&flagBlocked != 0 {
		st.blockEpochsLeft--
		if st.blockEpochsLeft <= 0 {
			st.blockEpochsLeft = 0
			h.flags &^= flagBlocked
		}
	}
	switch h.state {
	case StateIdle:
		m.toState(h, evTrain)
		//lint:allow noalloc -- sh.reqs arrives resliced to [:0] from scanShard; growth settles after the first training wave (see TestScanZeroAllocSteadyState)
		sh.reqs = append(sh.reqs, request{
			id:      st.id,
			trigger: epochStart + triggerJitter(m.cfg.seed, st.id, epochIx, m.cfg.epoch),
		})
		metPending.Add(1)
	case StateTracking:
		if !st.gainValid {
			m.refreshCurGain(st, h)
		}
		g := st.curGain
		if st.blockEpochsLeft > 0 {
			g -= st.blockAttenDB
		}
		if st.servedGain-g > m.cfg.degradeDropDB || g != g { // g!=g: NaN (drifted off the pattern grid)
			m.toState(h, evDegrade)
			sh.partial.degrades++
			h.deadline = epochEnd + m.cfg.epoch
			sh.armTimer(slot, m.fireEpoch(h.deadline))
			break
		}
		if epochStart >= h.deadline {
			m.toState(h, evRetrain)
			//lint:allow noalloc -- sh.reqs arrives resliced to [:0] from scanShard; growth settles after the first training wave (see TestScanZeroAllocSteadyState)
			sh.reqs = append(sh.reqs, request{
				id: st.id, retrain: true,
				trigger: epochStart + triggerJitter(m.cfg.seed, st.id, epochIx, m.cfg.epoch),
			})
			metPending.Add(1)
			break
		}
		sh.partial.trackedEpochs++
		if h.sampleRes == want {
			sh.partial.trackLoss.Observe(stats.MilliDB(m.cachedBestGain(st) - st.curGain))
		}
	case StateDegraded:
		if epochStart >= h.deadline {
			m.toState(h, evRetrain)
			//lint:allow noalloc -- sh.reqs arrives resliced to [:0] from scanShard; growth settles after the first training wave (see TestScanZeroAllocSteadyState)
			sh.reqs = append(sh.reqs, request{
				id: st.id, retrain: true,
				trigger: epochStart + triggerJitter(m.cfg.seed, st.id, epochIx, m.cfg.epoch),
			})
			metPending.Add(1)
		}
	}
}

// park files the station in slot after a visit or an applied outcome:
// a station that needs the per-station logic every epoch (impairment
// flags set, idle, or tracking under a degrade-always threshold) goes
// back on the due list; a quiet tracked station opens its accrual
// window at epoch from. Degraded and in-flight stations wait for their
// timer or their round.
func (m *Manager) park(sh *shard, slot int32, from uint64) {
	h := &sh.hot[slot]
	switch {
	case h.flags != 0 || h.state == StateIdle || (h.state == StateTracking && m.cfg.degradeDropDB < 0):
		sh.due = append(sh.due, slot)
	case h.state == StateTracking:
		st := &sh.recs[slot]
		st.accruing, st.accrueFrom = true, from
	}
}

// settle books the quiet tracked epochs [st.accrueFrom, to) of an open
// accrual window into t and moves the window's start to to. Each such
// epoch is one tracked epoch, and the epochs e with
// (id+e) % lossSampleStride == 0 each sample the same loss: the serving
// and best gains cannot change while the station stays quiet.
func (m *Manager) settle(st *station, to uint64, t *tally) {
	from := st.accrueFrom
	if !st.accruing || to <= from {
		return
	}
	st.accrueFrom = to
	t.trackedEpochs += int64(to - from)
	s := m.cfg.lossSampleStride
	r := (s - uint64(st.id)%s) % s // sampled epochs are ≡ r (mod s)
	if k := residuesBelow(to, r, s) - residuesBelow(from, r, s); k > 0 {
		t.trackLoss.ObserveN(stats.MilliDB(m.cachedBestGain(st)-st.curGain), int64(k))
	}
}

// residuesBelow counts the e in [0, n) with e % s == r, for r < s.
func residuesBelow(n, r, s uint64) uint64 {
	if n <= r {
		return 0
	}
	return (n-r-1)/s + 1
}

// armed reports whether h's deadline is live: only tracked (staleness
// retrain) and degraded (backoff expiry) stations have one.
func armed(h *hotStation) bool { return h.state == StateTracking || h.state == StateDegraded }

// fireEpoch returns the first epoch whose start reaches deadline — the
// scan where `epochStart >= deadline` first holds.
func (m *Manager) fireEpoch(deadline time.Duration) uint64 {
	if deadline <= 0 {
		return 0
	}
	e := uint64(deadline / m.cfg.epoch)
	if deadline%m.cfg.epoch != 0 {
		e++
	}
	return e
}

// armTimer sets the timer of the station in slot to fire epoch fire. It
// moves the station's heap entry if it has one and adds one otherwise.
// The heap thus holds at most one entry per slot, so it grows by
// doubling up to the capacity of the hot slice and never past it: a
// heap with no room left has fewer entries than the shard has slots.
func (sh *shard) armTimer(slot int32, fire uint64) {
	h := &sh.hot[slot]
	if h.tpos != 0 {
		i := int(h.tpos - 1)
		sh.timers[i].fire = fire
		if !sh.siftDown(i) {
			sh.siftUp(i)
		}
		return
	}
	if n := len(sh.timers); n == cap(sh.timers) {
		t := make([]timer, n, min(max(2*n, 8), cap(sh.hot)))
		copy(t, sh.timers)
		sh.timers = t
	}
	sh.timers = append(sh.timers, timer{fire: fire, slot: slot})
	h.tpos = int32(len(sh.timers))
	sh.siftUp(len(sh.timers) - 1)
}

// dropTimer removes and returns timer-heap entry i, clearing its
// station's heap position.
func (sh *shard) dropTimer(i int) timer {
	t := sh.timers
	drop := t[i]
	sh.hot[drop.slot].tpos = 0
	n := len(t) - 1
	sh.timers = t[:n]
	if i < n {
		t[i] = t[n]
		sh.hot[t[i].slot].tpos = int32(i + 1)
		if !sh.siftDown(i) {
			sh.siftUp(i)
		}
	}
	return drop
}

// siftUp moves timer-heap entry i toward the root until its parent fires
// no later.
func (sh *shard) siftUp(i int) {
	t := sh.timers
	for i > 0 {
		p := (i - 1) / 2
		if t[p].fire <= t[i].fire {
			break
		}
		sh.swapTimers(p, i)
		i = p
	}
}

// siftDown moves timer-heap entry i toward the leaves until no child
// fires earlier, and reports whether it moved.
func (sh *shard) siftDown(i int) bool {
	t := sh.timers
	start := i
	for {
		c := 2*i + 1
		if c >= len(t) {
			break
		}
		if r := c + 1; r < len(t) && t[r].fire < t[c].fire {
			c = r
		}
		if t[i].fire <= t[c].fire {
			break
		}
		sh.swapTimers(i, c)
		i = c
	}
	return i > start
}

// swapTimers swaps timer-heap entries i and j and keeps both stations'
// heap positions current.
func (sh *shard) swapTimers(i, j int) {
	t := sh.timers
	t[i], t[j] = t[j], t[i]
	sh.hot[t[i].slot].tpos = int32(i + 1)
	sh.hot[t[j].slot].tpos = int32(j + 1)
}

// applyEventLocked applies one queued event to its shard, keeping the
// hot records' impairment flags in sync with the cold fields they
// summarize and putting the touched station on the due list.
func (m *Manager) applyEventLocked(sh *shard, ev Event) {
	switch ev.Kind {
	case EventArrival:
		if ev.DistM <= 0 {
			ev.DistM = refDistM
		}
		m.arriveLocked(sh, ev)
	case EventDeparture:
		m.departLocked(sh, ev.Station)
	case EventMobility:
		if slot, ok := sh.lookup(ev.Station); ok {
			sh.recs[slot].driftDegPerSec = ev.DriftDegPerSec
			if ev.DriftDegPerSec != 0 {
				sh.hot[slot].flags |= flagDrift
			} else {
				sh.hot[slot].flags &^= flagDrift
			}
			sh.due = append(sh.due, slot)
			metMobilityEvents.Inc()
		}
	case EventBlockage:
		if slot, ok := sh.lookup(ev.Station); ok {
			st := &sh.recs[slot]
			st.blockAttenDB = ev.AttenDB
			epochs := int(ev.Duration / m.cfg.epoch)
			if epochs < 1 {
				epochs = 1
			}
			st.blockEpochsLeft = epochs
			sh.hot[slot].flags |= flagBlocked
			sh.due = append(sh.due, slot)
			metBlockages.Inc()
		}
	case EventFault:
		if slot, ok := sh.lookup(ev.Station); ok {
			sh.recs[slot].faultLossFrac = ev.LossFrac
			sh.due = append(sh.due, slot)
			metFaultEvents.Inc()
		}
	}
}

// toState takes a legal edge and books the transition metric. Illegal
// edges are programming errors; they leave the state unchanged.
func (m *Manager) toState(h *hotStation, ev transEvent) {
	next, ok := transition(h.state, ev)
	if !ok {
		return
	}
	h.state = next
	noteTransition(next)
}

// triggerJitter spreads training triggers of one epoch uniformly across
// it, deterministically per (seed, station, epoch): without it every
// round would queue at the epoch boundary and the latency distribution
// would collapse to a point.
func triggerJitter(seed int64, id StationID, epoch uint64, d time.Duration) time.Duration {
	h := uint64(seed) ^ 0xd1b54a32d192ed03
	h = (h ^ uint64(id)) * 0x100000001b3
	h = (h ^ epoch) * 0x100000001b3
	h ^= h >> 32
	return time.Duration(h % uint64(d))
}

// trimFloor is the smallest use the scratch trim rule sizes a buffer by,
// so a near-idle shard keeps a little headroom instead of reallocating
// whenever its traffic flickers between a few entries.
const trimFloor = 64

// trimmed returns s unchanged unless its capacity exceeds 4 × max(use,
// trimFloor) — the mark of a buffer sized by an earlier, larger burst —
// in which case it returns a copy of s at capacity 2 × that. use is the
// buffer's use in the current Step and must be at least len(s).
//
// The rule reads nothing but the buffer and its use. A steady load never
// reallocates: append growth leaves a buffer under 4× its use, and a
// trimmed one has 2× headroom. A load that swings widely pays at most
// one copy of n entries per Step in which it used n, far less than the
// n rounds, visits or events that filled the buffer.
//
//talon:noalloc
func trimmed[T any](s []T, use int) []T {
	u := max(use, trimFloor)
	if cap(s) <= 4*u {
		return s
	}
	//lint:allow noalloc -- shrink after a burst: reached only when capacity exceeds 4× this Step's use, which a steady load never does
	t := make([]T, len(s), 2*u)
	copy(t, s)
	return t
}

// serveChunk is how many training rounds one batch serves. It bounds the
// per-Step serve scratch — the probe arena at serveChunk × M probes, the
// batch item, live-index and result buffers at serveChunk entries — so a
// recovery burst that retrains every station in one epoch leaves no
// burst-sized buffers behind. A round's outcome does not depend on which
// batch serves it (its probes derive from its own round seed), so the
// size shapes memory only.
const serveChunk = 1024

// serve runs phase 3+4 for the chosen requests: synthesize probe
// vectors into the arena, push them through core.SelectSectorBatchInto
// serveChunk rounds at a time and apply the outcomes. It returns how
// many requests it consumed — every batch before the first failing one,
// whose rounds stay queued.
func (m *Manager) serve(ctx context.Context, reqs []request, epochEnd time.Duration) (int, error) {
	done := 0
	for done < len(reqs) {
		chunk := reqs[done:min(done+serveChunk, len(reqs))]
		if err := m.serveBatch(ctx, chunk, epochEnd); err != nil {
			return done, err
		}
		done += len(chunk)
	}
	return done, nil
}

// serveBatch serves one batch of at most serveChunk rounds. A failed
// batch books nothing, so its rounds can stay queued: departed or
// out-of-state stations are counted as skipped only once the batch
// succeeded.
//
//talon:noalloc
func (m *Manager) serveBatch(ctx context.Context, chunk []request, epochEnd time.Duration) error {
	// The probe arena and the batch item and live-index buffers are
	// manager scratch reused across batches and epochs. They grow only to
	// the largest batch seen, so never past serveChunk rounds; appends
	// below stay within the capacity set here.
	need := len(chunk) * m.cfg.probeBudget
	if cap(m.arena) < need {
		//lint:allow noalloc -- grow-only: the probe arena reaches its steady-state capacity on the first full batch
		m.arena = make([]core.Probe, need)
		//lint:allow noalloc -- grow-only, together with the arena
		m.items = make([]core.BatchItem, 0, len(chunk))
		//lint:allow noalloc -- grow-only, together with the arena
		m.live = make([]int32, 0, len(chunk))
	}
	m.arena = m.arena[:need]

	// Synthesize under shard locks; departed or out-of-state stations
	// are skipped.
	m.items = m.items[:0]
	m.live = m.live[:0]
	for ci, r := range chunk {
		sh := m.shardOf(r.id)
		sh.mu.Lock()
		slot, ok := sh.lookup(r.id)
		if !ok || !inFlight(sh.hot[slot].state) {
			sh.mu.Unlock()
			continue
		}
		st := &sh.recs[slot]
		dst := m.arena[ci*m.cfg.probeBudget : ci*m.cfg.probeBudget : (ci+1)*m.cfg.probeBudget]
		probes := m.synthProbes(st, dst)
		st.round++
		hint := sh.hot[slot].cell
		sh.mu.Unlock()
		m.items = append(m.items, core.BatchItem{Probes: probes, Hint: hint})
		m.live = append(m.live, int32(ci))
	}
	skipped := len(chunk) - len(m.items)
	if len(m.items) > 0 {
		metBatchItems.Add(int64(len(m.items)))
		results, err := m.est.SelectSectorBatchInto(ctx, m.items, m.cfg.batchWorkers, m.results)
		if err != nil {
			return err
		}
		m.results = results
		for bi, res := range results {
			r := chunk[m.live[bi]]
			sh := m.shardOf(r.id)
			sh.mu.Lock()
			slot, ok := sh.lookup(r.id)
			if !ok {
				sh.mu.Unlock()
				skipped++
				continue
			}
			m.applyOutcome(sh, slot, m.items[bi].Probes, res, r, epochEnd)
			sh.mu.Unlock()
		}
	}
	m.acc.skipped += int64(skipped)
	metPending.Add(-int64(len(chunk)))
	return nil
}

// applyOutcome finishes one training round on the station in slot
// (shard lock held): adopt or fall back, arm the next deadline
// (staleness retrain on success, degraded backoff on failure) and its
// timer, refresh the hint cell and the gain caches, book the
// round's tally and park the station for the next scan.
func (m *Manager) applyOutcome(sh *shard, slot int32, probes []core.Probe, res core.BatchResult, r request, epochEnd time.Duration) {
	st, h := &sh.recs[slot], &sh.hot[slot]
	m.acc.trainings++
	metTrainings.Inc()
	if r.retrain {
		m.acc.retrains++
		metRetrains.Inc()
	}
	latency := (epochEnd - r.trigger) + dot11ad.MutualTrainingTime(m.cfg.probeBudget)
	m.acc.latency.Observe(int64(latency))
	metSelectLatency.Observe(latency.Seconds())

	sel, err := res.Selection, res.Err
	adopted := false
	if err == nil {
		st.sector, st.haveSector, adopted = sel.Sector, true, true
		m.toState(h, evSelectOK)
		h.cell = sel.AoA.Cell
		h.deadline = epochEnd + m.cfg.retrainInterval
	} else {
		m.acc.failures++
		metSelectFailures.Inc()
		if id, ok := fallbackSector(probes); ok {
			st.sector, st.haveSector, adopted = id, true, true
			m.acc.fallbacks++
			metFallbacks.Inc()
		}
		m.toState(h, evSelectFail)
		h.cell = core.NoCell
		h.deadline = epochEnd + m.cfg.epoch
	}
	if adopted {
		m.refreshCurGain(st, h)
		g := st.curGain
		if st.blockEpochsLeft > 0 {
			g -= st.blockAttenDB
		}
		st.servedGain = g
		m.acc.selLoss.Observe(stats.MilliDB(m.cachedBestGain(st) - st.curGain))
	}
	// A station that departed while its round was estimated and arrived
	// again under its ID is idle here, with no deadline to arm.
	if armed(h) {
		sh.armTimer(slot, m.fireEpoch(h.deadline))
	}
	m.park(sh, slot, sh.cursor)
}
