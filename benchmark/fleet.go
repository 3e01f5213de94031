package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"talon/internal/eval"
	"talon/internal/fleet"
	"talon/internal/pattern"
	"talon/internal/stats"
)

// fleetParams sizes one fleet workload. Rates are per-epoch fractions of
// the live population.
type fleetParams struct {
	stations int
	// ramp spreads the initial arrivals over this many epochs (one full
	// retrain cycle, so retrain deadlines are not synchronised); 0 admits
	// every station before the first Step. settle epochs follow the ramp.
	ramp, settle                     int
	churn, mobility, blockage, fault float64
	// retrain overrides the staleness retrain interval when positive.
	retrain time.Duration
	// recovery serves the all-at-once arrival burst before the window.
	recovery bool
	// checkpoints are the window epochs after which every station's
	// selection is snapshotted for the loss metric and the digest. The
	// window runs at least to the last one, so both are deterministic.
	checkpoints []int
}

// newFleetSteady is the service in steady state: the estimation kernel
// and probe synthesis dominate each epoch and warm starts are exercised.
func newFleetSteady() workload {
	return &fleetWorkload{p: fleetParams{
		stations: 10000, ramp: 11, settle: 11,
		churn: 0.002, mobility: 0.01, blockage: 0.002, fault: 0.002,
		checkpoints: []int{150, 300, 450},
	}}
}

// newFleetScan is a large, mostly static fleet: the per-station epoch
// scan dominates and the kernel does little. The retrain interval keeps
// the staleness wave after the recovery burst outside any window.
func newFleetScan() workload {
	return &fleetWorkload{p: fleetParams{
		stations: 250000,
		churn:    5e-5, mobility: 5e-5, blockage: 5e-5, fault: 5e-5,
		settle:      11,
		retrain:     24 * time.Hour,
		recovery:    true,
		checkpoints: []int{1000},
	}}
}

type fleetWorkload struct {
	p      fleetParams
	plat   *eval.Platform
	m      *fleet.Manager
	gen    *generator
	txPats []*pattern.Pattern
}

func (w *fleetWorkload) setup(ctx context.Context, e *env) error {
	plat, err := e.buildPlatform(ctx, e.setupSpan)
	if err != nil {
		return err
	}
	opts := []fleet.Option{fleet.WithSeed(e.cfg.seed)}
	if w.p.retrain > 0 {
		opts = append(opts, fleet.WithRetrainInterval(w.p.retrain))
	}
	m, err := fleet.New(plat.Estimator, plat.Patterns, opts...)
	if err != nil {
		return err
	}
	n := e.scaled(w.p.stations, 64)
	gen := newGenerator(e.cfg.seed, plat.Patterns, m, n, w.p)
	w.plat, w.m, w.gen = plat, m, gen
	w.txPats = w.txPats[:0]
	for _, id := range plat.Patterns.TXIDs() {
		w.txPats = append(w.txPats, plat.Patterns.Get(id))
	}

	var arrive, warm time.Duration
	admit := func(k int) error {
		sp := e.tr.begin(spArrive, e.setupSpan, -1)
		t0 := time.Now()
		for i := 0; i < k; i++ {
			if !m.Arrive(gen.arrival()) {
				return fmt.Errorf("station %d arrived twice", gen.nextID-1)
			}
		}
		arrive += time.Since(t0)
		e.tr.end(sp)
		return nil
	}
	if w.p.ramp == 0 {
		if err := admit(n); err != nil {
			return err
		}
	}
	warmup := w.p.ramp + w.p.settle
	if w.p.recovery {
		warmup = 0 // the scan fleet settles after its recovery burst
	}
	for ep := 0; ep < warmup; ep++ {
		if ep < w.p.ramp {
			if err := admit(n*(ep+1)/w.p.ramp - n*ep/w.p.ramp); err != nil {
				return err
			}
		}
		gen.epoch()
		sp := e.tr.begin(spWarmup, e.setupSpan, -1)
		t0 := time.Now()
		err := m.Step(ctx)
		warm += time.Since(t0)
		e.tr.end(sp)
		if err != nil {
			return err
		}
	}
	e.timeSetup("fleet.arrive_s", arrive)
	e.timeSetup("fleet.warmup_s", warm)
	return nil
}

func (w *fleetWorkload) measure(ctx context.Context, e *env, m *measurement) error {
	mgr, gen, l := w.m, w.gen, m.layer
	if w.p.recovery {
		// The recovery burst: every station trains in one cold batch.
		sp := e.tr.begin(spRecovery, -1, -1)
		before := counterValue(cTrainings)
		t0 := time.Now()
		for {
			if err := mgr.Step(ctx); err != nil {
				return err
			}
			if mgr.Pending() == 0 {
				break
			}
		}
		l["fleet.recovery_s"] = time.Since(t0).Seconds()
		l["fleet.recovery_trainings"] = float64(counterValue(cTrainings) - before)
		e.tr.end(sp)
		// Rounds that failed in the burst retrain after their backoff;
		// settle epochs keep those echoes out of the window.
		for ep := 0; ep < w.p.settle; ep++ {
			gen.epoch()
			if err := mgr.Step(ctx); err != nil {
				return err
			}
		}
	}

	last := w.p.checkpoints[len(w.p.checkpoints)-1]
	// Sized for a 100 µs epoch, well below any full-size one, so the
	// window loop does not grow them.
	capEpochs := int(e.cfg.seconds*10000) + last + 1
	m.ops = make([]int64, 0, capEpochs)
	trainings := make([]int64, 0, capEpochs)
	failures := make([]int64, 0, capEpochs)
	train0, fail0, events0 := counterValue(cTrainings), counterValue(cSelectFailures), gen.events

	var dispatch, checkpoints time.Duration
	var loss float64
	var lossN, missing int64
	pendingMax, next := 0, 0
	m.startWindow()
	start := time.Now()
	deadline := start.Add(time.Duration(e.cfg.seconds * float64(time.Second)))
	for ep := 0; ep <= last || time.Now().Before(deadline); ep++ {
		tr := e.traced(ep)
		sp := tr.begin(spGenerate, -1, ep)
		t0 := time.Now()
		gen.epoch()
		dispatch += time.Since(t0)
		tr.end(sp)

		sp = tr.begin(spStep, -1, ep)
		t0 = time.Now()
		err := mgr.Step(ctx)
		m.ops = append(m.ops, int64(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
		trainings = append(trainings, counterValue(cTrainings))
		failures = append(failures, counterValue(cSelectFailures))
		if p := mgr.Pending(); p > pendingMax {
			pendingMax = p
		}

		if next < len(w.p.checkpoints) && ep == w.p.checkpoints[next] {
			next++
			sp := e.tr.begin(spCheckpoint, -1, ep)
			t0 := time.Now()
			s, n, miss := w.checkpoint(m)
			loss, lossN, missing = loss+s, lossN+n, missing+miss
			checkpoints += time.Since(t0)
			e.tr.end(sp)
		}
	}
	m.windowS = (time.Since(start) - checkpoints).Seconds()
	m.endWindow()
	epochs := len(m.ops)
	m.selections = trainings[epochs-1] - train0
	if lossN > 0 {
		m.lossDB = loss / float64(lossN)
	}
	if t := trainings[last] - train0; t > 0 {
		m.failedFrac = float64(failures[last]-fail0) / float64(t)
	}

	alive := len(gen.alive)
	m.check("fleet.len", mgr.Len() == alive, "Manager.Len %d, benchmark alive count %d", mgr.Len(), alive)
	m.check("fleet.queue_drops", gen.drops == 0, "%d events dropped", gen.drops)
	m.check("fleet.checkpoint", missing == 0 && lossN > 0, "%d loss samples, %d alive stations without a snapshot", lossN, missing)
	var ts [3]third
	for i := range ts {
		ts[i] = thirdOf(m.ops, trainings, failures, train0, fail0, i*epochs/3, (i+1)*epochs/3)
	}
	drift := ts[2].p50ms / ts[0].p50ms
	work, fail := ratio(ts[0].perEpoch, ts[2].perEpoch), ratio(ts[0].failed, ts[2].failed)
	judged := ts[0].trainings >= minThirdTrainings && ts[2].trainings >= minThirdTrainings
	m.check("fleet.stationary", !judged || (math.Abs(work-1) <= 0.10 && math.Abs(fail-1) <= 0.10),
		"last/first third: trainings per epoch %.3f, failed_frac %.3f (limit ±10%%, judged %v), step p50 %.3f; "+
			"by thirds: step p50 ms %.3f %.3f %.3f, trainings per epoch %.1f %.1f %.1f, failed_frac %.4f %.4f %.4f",
		work, fail, judged, drift,
		ts[0].p50ms, ts[1].p50ms, ts[2].p50ms,
		ts[0].perEpoch, ts[1].perEpoch, ts[2].perEpoch,
		ts[0].failed, ts[1].failed, ts[2].failed)

	step := sumSeconds(m.ops)
	self := step - (m.after.counters[cBatchSeconds] - m.before.counters[cBatchSeconds])
	l["fleet.step_s"] = step
	l["fleet.step_self_s"] = self
	l["fleet.self_ns_per_station"] = self * 1e9 / float64(epochs*alive)
	if m.selections > 0 {
		l["fleet.self_us_per_training"] = self * 1e6 / float64(m.selections)
	}
	l["fleet.dispatch_s"] = dispatch.Seconds()
	l["fleet.events"] = float64(gen.events - events0)
	l["fleet.pending_max"] = float64(pendingMax)
	l["fleet.p50_drift_ratio"] = drift
	return nil
}

// minThirdTrainings is the sample a window third needs before its
// training rate and failure share are compared: at 10k trainings the
// binomial noise of a 2% failure share is about 7%.
const minThirdTrainings = 10000

// third summarises window epochs [lo, hi) from the per-epoch Step times
// and cumulative counters.
type third struct {
	p50ms, perEpoch, failed float64
	trainings               int64
}

func thirdOf(steps, trainings, failures []int64, train0, fail0 int64, lo, hi int) third {
	if hi <= lo {
		return third{}
	}
	t0, f0 := train0, fail0
	if lo > 0 {
		t0, f0 = trainings[lo-1], failures[lo-1]
	}
	th := third{p50ms: quantileInt(steps[lo:hi], 0.5) / 1e6, trainings: trainings[hi-1] - t0}
	th.perEpoch = float64(th.trainings) / float64(hi-lo)
	if th.trainings > 0 {
		th.failed = float64(failures[hi-1]-f0) / float64(th.trainings)
	}
	return th
}

// ratio is b/a, 1 when both are zero.
func ratio(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 1
	}
	return b / a
}

// checkpoint snapshots every live station, folds each snapshot into the
// output digest and sums the selection loss of the stations with a link.
// missing counts live stations the service does not know.
func (w *fleetWorkload) checkpoint(m *measurement) (loss float64, n, missing int64) {
	for _, id := range w.gen.alive {
		s, ok := w.m.Snapshot(id)
		if !ok {
			missing++
			continue
		}
		link := uint64(0)
		if s.HasLink {
			link = 1
		}
		m.mix(uint64(s.ID))
		m.mix(uint64(s.State) | uint64(s.Sector)<<8 | link<<16 | uint64(s.Rounds)<<32)
		m.mix(math.Float64bits(s.AzDeg))
		if !s.HasLink {
			continue
		}
		if l, ok := selectionLoss(w.txPats, w.plat.Patterns.Get(s.Sector), s.AzDeg, s.ElDeg); ok {
			loss += l
			n++
		}
	}
	return loss, n, missing
}

// generator is the stationary fleet workload. Stations arrive static at
// a uniform direction inside the 10%-inset pattern coverage. Mobility is
// a bounded walk toward a target inside the same coverage, ended by a
// drift-0 event, so no station leaves the measured patterns. A probe-loss
// burst lasts as long as a blockage and is ended by a zero-loss fault
// event, so bursts cannot pile up on stations that rarely train. The
// workload's statistics therefore do not drift with run length. After
// newGenerator it allocates nothing: the alive list and the ring of
// ending events are sized up front.
type generator struct {
	rng                    *stats.RNG
	m                      *fleet.Manager
	p                      fleetParams
	alive                  []fleet.StationID
	nextID                 fleet.StationID
	azLo, azHi, elLo, elHi float64
	// ends[e % len(ends)] holds the events that end walks and bursts,
	// dispatched at the start of generator epoch e.
	ends   [][]fleet.Event
	ix     int
	events int64
	drops  int64
}

// Walks last walkMinS to walkMaxS seconds of virtual time; blockages
// and probe-loss bursts last burstMinS to burstMaxS.
const (
	walkMinS, walkMaxS   = 0.5, 2.0
	burstMinS, burstMaxS = 0.2, 1.0
)

// epochS is the fleet service's default epoch length, which the
// benchmark keeps.
const epochS = 0.1

func newGenerator(seed int64, patterns *pattern.Set, m *fleet.Manager, stations int, p fleetParams) *generator {
	az, el := patterns.Grid().Az(), patterns.Grid().El()
	azSpan, elSpan := az[len(az)-1]-az[0], el[len(el)-1]-el[0]
	g := &generator{
		rng:   stats.NewFastRNG(seed),
		m:     m,
		p:     p,
		alive: make([]fleet.StationID, 0, stations),
		azLo:  az[0] + 0.1*azSpan, azHi: az[len(az)-1] - 0.1*azSpan,
		elLo: el[0] + 0.1*elSpan, elHi: el[len(el)-1] - 0.1*elSpan,
	}
	maxEnd := int(math.Round(walkMaxS/epochS)) + 1
	// A ring slot collects the ends of walks and bursts started over
	// maxEnd epochs.
	perSlot := maxEnd * (int((p.mobility+p.fault)*float64(stations)) + 4)
	g.ends = make([][]fleet.Event, maxEnd+1)
	for i := range g.ends {
		g.ends[i] = make([]fleet.Event, 0, perSlot)
	}
	return g
}

// arrival draws a fresh static station.
func (g *generator) arrival() fleet.Event {
	id := g.nextID
	g.nextID++
	g.alive = append(g.alive, id)
	return fleet.Event{
		Kind:    fleet.EventArrival,
		Station: id,
		AzDeg:   g.rng.Uniform(g.azLo, g.azHi),
		ElDeg:   g.rng.Uniform(g.elLo, g.elHi),
		DistM:   1 + 9*g.rng.Float64()*g.rng.Float64(),
	}
}

func (g *generator) dispatch(ev fleet.Event) {
	g.events++
	if !g.m.Dispatch(ev) {
		g.drops++
	}
}

// pick draws a live station uniformly; remove also drops it from the
// alive list.
func (g *generator) pick(remove bool) (fleet.StationID, bool) {
	if len(g.alive) == 0 {
		return 0, false
	}
	i := g.rng.Intn(len(g.alive))
	id := g.alive[i]
	if remove {
		g.alive[i] = g.alive[len(g.alive)-1]
		g.alive = g.alive[:len(g.alive)-1]
	}
	return id, true
}

// count turns a per-epoch rate into an event count: the integer part
// always fires, the remainder with matching probability.
func (g *generator) count(rate float64) int {
	exp := rate * float64(len(g.alive))
	n := int(exp)
	if g.rng.Bool(exp - float64(n)) {
		n++
	}
	return n
}

// epoch dispatches one epoch's events, to be applied by the next Step.
func (g *generator) epoch() {
	slot := &g.ends[g.ix%len(g.ends)]
	for _, ev := range *slot {
		g.dispatch(ev)
	}
	*slot = (*slot)[:0]

	// Churn: a departure paired with an arrival keeps the size fixed.
	for i, n := 0, g.count(g.p.churn); i < n; i++ {
		if id, ok := g.pick(true); ok {
			g.dispatch(fleet.Event{Kind: fleet.EventDeparture, Station: id})
		}
		g.dispatch(g.arrival())
	}
	for i, n := 0, g.count(g.p.mobility); i < n; i++ {
		id, _ := g.pick(false)
		s, ok := g.m.Snapshot(id)
		if !ok {
			continue // arrived this epoch; not admitted yet
		}
		walk := int(math.Round(g.rng.Uniform(walkMinS, walkMaxS) / epochS))
		target := g.rng.Uniform(g.azLo, g.azHi)
		g.dispatch(fleet.Event{Kind: fleet.EventMobility, Station: id,
			DriftDegPerSec: (target - s.AzDeg) / (float64(walk) * epochS)})
		g.endAfter(walk, fleet.Event{Kind: fleet.EventMobility, Station: id})
	}
	for i, n := 0, g.count(g.p.blockage); i < n; i++ {
		id, _ := g.pick(false)
		g.dispatch(fleet.Event{Kind: fleet.EventBlockage, Station: id,
			AttenDB:  g.rng.Uniform(5, 25),
			Duration: time.Duration(g.rng.Uniform(burstMinS, burstMaxS) * float64(time.Second)),
		})
	}
	for i, n := 0, g.count(g.p.fault); i < n; i++ {
		id, _ := g.pick(false)
		g.dispatch(fleet.Event{Kind: fleet.EventFault, Station: id, LossFrac: g.rng.Uniform(0.5, 1)})
		burst := int(math.Round(g.rng.Uniform(burstMinS, burstMaxS) / epochS))
		g.endAfter(burst, fleet.Event{Kind: fleet.EventFault, Station: id})
	}
	g.ix++
}

// endAfter schedules ev for the start of the generator epoch k epochs
// from now (1 <= k < len(g.ends)).
func (g *generator) endAfter(k int, ev fleet.Event) {
	slot := &g.ends[(g.ix+k)%len(g.ends)]
	*slot = append(*slot, ev)
}
