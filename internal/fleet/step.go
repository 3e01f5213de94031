package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"talon/internal/core"
	"talon/internal/dot11ad"
)

// Step advances the fleet by one epoch of virtual time:
//
//  1. Every shard drains its bounded event queue and applies the events,
//     then scans its stations — advancing mobility drift, expiring
//     blockages, degrading links whose serving gain collapsed and
//     scheduling staleness/backoff retrains. Shards are scanned by a
//     worker pool; each worker owns a shard exclusively while scanning
//     it, writing requests and tally partials into shard-local scratch.
//  2. The per-shard request lists are concatenated in shard-index order
//     (deterministic regardless of which worker finished first) and
//     appended to the global FIFO pending queue.
//  3. Up to the configured capacity of pending rounds is served: probe
//     vectors are synthesized into a reused arena and pushed through
//     core.SelectSectorBatch in bounded chunks — the single estimation
//     funnel for the whole fleet — each round hinted with its station's
//     previous selection cell when warm-start is on.
//  4. Outcomes are applied: successful selections adopt the sector and
//     transition to tracking; failures fall back to the probed argmax
//     and degrade. Virtual selection latency (queueing + training
//     airtime) and SNR loss versus the ground-truth best sector feed the
//     scorecard tally.
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

	// Phase 1+2: parallel shard scan, deterministic merge.
	m.scanShards(epochStart, epochEnd)
	for _, sh := range m.shards {
		m.pending = append(m.pending, sh.reqs...)
		m.acc.merge(&sh.partial)
	}

	// Phase 3+4: serve the head of the pending queue through the batch
	// estimation funnel.
	serve := len(m.pending)
	if m.cfg.capacity > 0 && serve > m.cfg.capacity {
		serve = m.cfg.capacity
	}
	if serve > 0 {
		if err := m.serve(ctx, m.pending[:serve], epochEnd); err != nil {
			return err
		}
		n := copy(m.pending, m.pending[serve:])
		m.pending = m.pending[:n]
	}

	m.now.Store(int64(epochEnd))
	m.epoch++
	return nil
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

// scanShard drains shard i's event queue and scans its stations in
// ascending-ID order along the precomputed order slice. Holds the shard
// lock throughout so concurrent Arrive/Depart stay safe.
//
// The loop is split in two tiers. The fast path covers the steady state
// — a tracked station with no impairment flags — and reads only the
// 24-byte hot record: deadline compare, tracked-epoch count, sampled
// loss observation from the cached gains. Skipping the degrade check
// there is exact, not approximate: with no drift, no blockage and a
// non-NaN serving gain, both sides of the check are unchanged since the
// last slow-path scan or adoption (where it passed — otherwise the
// station would not be tracking), so it cannot fire. Everything else
// (any flag set, any other state, or a degrade-always threshold) takes
// scanSlow, which reproduces the full per-station logic.
//
//talon:noalloc
func (m *Manager) scanShard(i int, epochStart, epochEnd time.Duration) {
	sh := m.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.reqs = sh.reqs[:0]
	if !sh.partial.latency.Initialized() {
		sh.partial.init()
	} else {
		sh.partial.reset()
	}

	// Drain the bounded queue. Only events queued before Step are
	// guaranteed to apply this epoch.
	for n := len(sh.queue); n > 0; n-- {
		ev, ok := <-sh.queue
		if !ok {
			break
		}
		m.applyEventLocked(sh, ev)
	}

	dt := epochEnd.Seconds() - epochStart.Seconds()
	epochIx := m.epoch
	stride := m.cfg.lossSampleStride
	// (id+epoch) % stride == 0  ⟺  id % stride == (stride - epoch%stride) % stride,
	// so the per-station sampling test is one compare against this
	// epoch-constant residue.
	want := uint32((stride - epochIx%stride) % stride)
	fast := m.fastScan
	for _, slot := range sh.order {
		h := &sh.hot[slot]
		if fast && h.state == StateTracking && h.flags == 0 {
			if epochStart >= h.deadline {
				st := &sh.recs[slot]
				m.toState(h, evRetrain)
				sh.reqs = append(sh.reqs, request{
					id: st.id, shardIx: i, retrain: true,
					trigger: epochStart + triggerJitter(m.cfg.seed, st.id, epochIx, m.cfg.epoch),
				})
				metPending.Add(1)
				continue
			}
			sh.partial.trackedEpochs++
			if h.sampleRes == want {
				st := &sh.recs[slot]
				sh.partial.trackLoss.Observe(milliDB(m.cachedBestGain(st) - st.curGain))
			}
			continue
		}
		m.scanSlow(sh, i, slot, epochStart, epochEnd, dt, epochIx, want)
	}
}

// scanSlow is the full per-station epoch scan: mobility drift, blockage
// expiry and the state-machine actions for every lifecycle state.
//
//talon:noalloc
func (m *Manager) scanSlow(sh *shard, i int, slot int32, epochStart, epochEnd time.Duration, dt float64, epochIx uint64, want uint32) {
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
			id: st.id, shardIx: i,
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
			h.deadline = epochEnd + m.cfg.degradedBackoff
			break
		}
		if epochStart >= h.deadline {
			m.toState(h, evRetrain)
			//lint:allow noalloc -- sh.reqs arrives resliced to [:0] from scanShard; growth settles after the first training wave (see TestScanZeroAllocSteadyState)
			sh.reqs = append(sh.reqs, request{
				id: st.id, shardIx: i, retrain: true,
				trigger: epochStart + triggerJitter(m.cfg.seed, st.id, epochIx, m.cfg.epoch),
			})
			metPending.Add(1)
			break
		}
		sh.partial.trackedEpochs++
		if h.sampleRes == want {
			sh.partial.trackLoss.Observe(milliDB(m.cachedBestGain(st) - st.curGain))
		}
	case StateDegraded:
		if epochStart >= h.deadline {
			m.toState(h, evRetrain)
			//lint:allow noalloc -- sh.reqs arrives resliced to [:0] from scanShard; growth settles after the first training wave (see TestScanZeroAllocSteadyState)
			sh.reqs = append(sh.reqs, request{
				id: st.id, shardIx: i, retrain: true,
				trigger: epochStart + triggerJitter(m.cfg.seed, st.id, epochIx, m.cfg.epoch),
			})
			metPending.Add(1)
		}
	}
}

// applyEventLocked applies one queued event to its shard, keeping the
// hot records' impairment flags in sync with the cold fields they
// summarize.
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
		if slot, ok := sh.index[ev.Station]; ok {
			sh.recs[slot].driftDegPerSec = ev.DriftDegPerSec
			if ev.DriftDegPerSec != 0 {
				sh.hot[slot].flags |= flagDrift
			} else {
				sh.hot[slot].flags &^= flagDrift
			}
			metMobilityEvents.Inc()
		}
	case EventBlockage:
		if slot, ok := sh.index[ev.Station]; ok {
			st := &sh.recs[slot]
			st.blockAttenDB = ev.AttenDB
			epochs := int(ev.Duration / m.cfg.epoch)
			if epochs < 1 {
				epochs = 1
			}
			st.blockEpochsLeft = epochs
			sh.hot[slot].flags |= flagBlocked
			metBlockages.Inc()
		}
	case EventFault:
		if slot, ok := sh.index[ev.Station]; ok {
			sh.recs[slot].faultLossFrac = ev.LossFrac
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

// serve runs phase 3+4 for the chosen requests: synthesize probe
// vectors into the arena, push them through core.SelectSectorBatch in
// bounded chunks and apply the outcomes.
func (m *Manager) serve(ctx context.Context, reqs []request, epochEnd time.Duration) error {
	for len(reqs) > 0 {
		chunk := reqs
		if len(chunk) > m.cfg.maxBatch {
			chunk = chunk[:m.cfg.maxBatch]
		}
		reqs = reqs[len(chunk):]
		if err := m.serveChunk(ctx, chunk, epochEnd); err != nil {
			return err
		}
	}
	return nil
}

//talon:noalloc
func (m *Manager) serveChunk(ctx context.Context, chunk []request, epochEnd time.Duration) error {
	need := len(chunk) * m.cfg.probeBudget
	if cap(m.arena) < need {
		//lint:allow noalloc -- grow-only: the probe arena is manager scratch that reaches its steady-state capacity on the first full chunk
		m.arena = make([]core.Probe, need)
	}
	m.arena = m.arena[:need]

	// Synthesize under shard locks; departed or out-of-state stations
	// are skipped. The batch item and live-index buffers are manager
	// scratch reused across chunks and epochs.
	m.items = m.items[:0]
	m.live = m.live[:0]
	warm := m.cfg.warmStart
	for ci, r := range chunk {
		sh := m.shards[r.shardIx]
		sh.mu.Lock()
		slot, ok := sh.index[r.id]
		if !ok || !inFlight(sh.hot[slot].state) {
			sh.mu.Unlock()
			m.acc.skipped++
			metPending.Add(-1)
			continue
		}
		st := &sh.recs[slot]
		dst := m.arena[ci*m.cfg.probeBudget : ci*m.cfg.probeBudget : (ci+1)*m.cfg.probeBudget]
		probes := m.synthProbes(st, dst)
		st.round++
		hint := core.NoCell
		if warm {
			hint = sh.hot[slot].cell
		}
		sh.mu.Unlock()
		m.items = append(m.items, core.BatchItem{Probes: probes, Hint: hint})
		m.live = append(m.live, int32(ci))
	}
	if len(m.items) == 0 {
		return nil
	}
	metBatchItems.Add(int64(len(m.items)))
	results, err := m.est.SelectSectorBatch(ctx, m.items, m.cfg.batchWorkers)
	if err != nil {
		return err
	}

	for bi, res := range results {
		r := chunk[m.live[bi]]
		sh := m.shards[r.shardIx]
		sh.mu.Lock()
		slot, ok := sh.index[r.id]
		if !ok {
			sh.mu.Unlock()
			m.acc.skipped++
			metPending.Add(-1)
			continue
		}
		m.applyOutcome(&sh.recs[slot], &sh.hot[slot], m.items[bi].Probes, res, r, epochEnd)
		sh.mu.Unlock()
		metPending.Add(-1)
	}
	return nil
}

// applyOutcome finishes one training round on its station (shard lock
// held): adopt or fall back, arm the next deadline (staleness retrain on
// success, degraded backoff on failure), refresh the warm-start hint
// cell and the gain caches, and book the round's tally.
func (m *Manager) applyOutcome(st *station, h *hotStation, probes []core.Probe, res core.BatchResult, r request, epochEnd time.Duration) {
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
		h.deadline = epochEnd + m.cfg.degradedBackoff
	}
	if adopted {
		m.refreshCurGain(st, h)
		g := st.curGain
		if st.blockEpochsLeft > 0 {
			g -= st.blockAttenDB
		}
		st.servedGain = g
		m.acc.selLoss.Observe(milliDB(m.cachedBestGain(st) - st.curGain))
	}
}
