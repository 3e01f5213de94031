package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"talon/internal/core"
	"talon/internal/pattern"
	"talon/internal/stats"
)

// SimConfig parameterizes one deterministic fleet simulation. The whole
// run — geometry, churn, mobility, blockage, faults, probing noise — is
// a pure function of this struct, so it is embedded in the Scorecard as
// the experiment's provenance.
type SimConfig struct {
	// Stations is the target fleet size (preseeded before epoch 0;
	// churn keeps the population near it).
	Stations int `json:"stations"`
	// Epochs is the virtual horizon in epochs.
	Epochs int `json:"epochs"`
	// EpochNs is the epoch length in nanoseconds of virtual time.
	EpochNs int64 `json:"epoch_ns"`
	// Seed reproduces the run.
	Seed int64 `json:"seed"`

	// M is the compressive probe budget per training round.
	M int `json:"probe_budget"`
	// Shards is the shard count (0: Manager default).
	Shards int `json:"shards,omitempty"`
	// Capacity caps trainings served per epoch (0: unlimited).
	Capacity int `json:"capacity,omitempty"`
	// Workers bounds the scan/batch worker pools. It shapes wall-clock
	// time only, never the scorecard.
	Workers int `json:"-"`

	// Per-epoch event rates as a fraction of the current population
	// (e.g. 0.01 churns 1% of stations per epoch).
	ChurnPerEpoch    float64 `json:"churn_per_epoch"`
	MobilityPerEpoch float64 `json:"mobility_per_epoch"`
	BlockagePerEpoch float64 `json:"blockage_per_epoch"`
	FaultPerEpoch    float64 `json:"fault_per_epoch"`
}

// generator is the seeded workload process. It owns a private alive-ID
// list (swap-remove for O(1) uniform departure draws) and a monotonic ID
// counter, so station IDs are never reused within a run.
type generator struct {
	rng    *stats.RNG
	alive  []StationID
	nextID StationID
	azLo   float64
	azHi   float64
	elLo   float64
	elHi   float64
	drops  int64
}

func newGenerator(seed int64, patterns *pattern.Set) *generator {
	g := &generator{rng: stats.NewRNG(seed)}
	az, el := patterns.Grid().Az(), patterns.Grid().El()
	// Inset the sampled geometry 10% from the grid edges so mobility
	// drift rarely walks a station off the measured patterns.
	azSpan, elSpan := az[len(az)-1]-az[0], el[len(el)-1]-el[0]
	g.azLo, g.azHi = az[0]+0.1*azSpan, az[len(az)-1]-0.1*azSpan
	g.elLo, g.elHi = el[0]+0.1*elSpan, el[len(el)-1]-0.1*elSpan
	return g
}

// arrivalEvent draws a fresh station: uniform direction within the
// pattern coverage, log-uniform-ish distance 1–10m, most stations
// static with a mobile minority.
func (g *generator) arrivalEvent() Event {
	id := g.nextID
	g.nextID++
	g.alive = append(g.alive, id)
	ev := Event{
		Kind:    EventArrival,
		Station: id,
		AzDeg:   g.rng.Uniform(g.azLo, g.azHi),
		ElDeg:   g.rng.Uniform(g.elLo, g.elHi),
		DistM:   1 + 9*g.rng.Float64()*g.rng.Float64(),
	}
	if g.rng.Bool(0.2) {
		ev.DriftDegPerSec = g.rng.Uniform(-10, 10)
	}
	return ev
}

// pick returns a uniformly drawn alive station (ok=false on an empty
// fleet). remove also deletes it from the alive list.
func (g *generator) pick(remove bool) (StationID, bool) {
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

// count converts a fractional per-epoch rate into an integer event count
// deterministically: the integer part always fires, the remainder fires
// with matching probability.
func (g *generator) count(rate float64) int {
	if rate <= 0 || len(g.alive) == 0 {
		return 0
	}
	exp := rate * float64(len(g.alive))
	n := int(exp)
	if g.rng.Bool(exp - float64(n)) {
		n++
	}
	return n
}

// eventRecorder observes every generated event before it is offered to
// the Manager (see RunSimRecorded). epoch is 0 for preseed arrivals and
// e+1 for events generated during simulation epoch e.
type eventRecorder func(epoch uint32, ev Event) error

// dispatch records (when recording) and then offers the event; queue
// drops are counted but the event is persisted regardless, so a replay
// reproduces the drop deterministically.
func (g *generator) dispatch(m *Manager, epoch uint32, rec eventRecorder, ev Event) error {
	if rec != nil {
		if err := rec(epoch, ev); err != nil {
			return err
		}
	}
	if !m.Dispatch(ev) {
		g.drops++
	}
	return nil
}

// epochEvents generates and dispatches one epoch's worth of workload.
func (g *generator) epochEvents(m *Manager, cfg SimConfig, epochDur time.Duration, epoch uint32, rec eventRecorder) error {
	// Churn: a departure paired with a fresh arrival keeps the fleet
	// near its target size.
	for i, n := 0, g.count(cfg.ChurnPerEpoch); i < n; i++ {
		if id, ok := g.pick(true); ok {
			if err := g.dispatch(m, epoch, rec, Event{Kind: EventDeparture, Station: id}); err != nil {
				return err
			}
		}
		if err := g.dispatch(m, epoch, rec, g.arrivalEvent()); err != nil {
			return err
		}
	}
	for i, n := 0, g.count(cfg.MobilityPerEpoch); i < n; i++ {
		if id, ok := g.pick(false); ok {
			if err := g.dispatch(m, epoch, rec, Event{Kind: EventMobility, Station: id,
				DriftDegPerSec: g.rng.Uniform(-10, 10)}); err != nil {
				return err
			}
		}
	}
	for i, n := 0, g.count(cfg.BlockagePerEpoch); i < n; i++ {
		if id, ok := g.pick(false); ok {
			if err := g.dispatch(m, epoch, rec, Event{Kind: EventBlockage, Station: id,
				AttenDB:  g.rng.Uniform(5, 25),
				Duration: time.Duration(g.rng.Uniform(2, 10) * float64(epochDur)),
			}); err != nil {
				return err
			}
		}
	}
	for i, n := 0, g.count(cfg.FaultPerEpoch); i < n; i++ {
		if id, ok := g.pick(false); ok {
			if err := g.dispatch(m, epoch, rec, Event{Kind: EventFault, Station: id,
				LossFrac: g.rng.Uniform(0.5, 1)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// normalize validates cfg and fills the defaulted fields. Both the live
// generator and the event-stream replay go through it, so a recorded
// run and its replay agree on the embedded Config.
func (cfg *SimConfig) normalize() error {
	if cfg.Stations <= 0 || cfg.Epochs <= 0 {
		return errors.New("fleet: sim needs positive stations and epochs")
	}
	if cfg.EpochNs <= 0 {
		cfg.EpochNs = int64(100 * time.Millisecond)
	}
	if cfg.M <= 0 {
		cfg.M = 14
	}
	return nil
}

// newSimManager builds the Manager exactly as RunSim configures it; extra
// options apply last.
func newSimManager(est *core.Estimator, patterns *pattern.Set, cfg SimConfig, extra ...Option) (*Manager, error) {
	opts := []Option{
		WithSeed(cfg.Seed),
		WithEpoch(time.Duration(cfg.EpochNs)),
		WithProbeBudget(cfg.M),
		WithBatchWorkers(cfg.Workers),
	}
	if cfg.Shards > 0 {
		opts = append(opts, WithShards(cfg.Shards))
	}
	if cfg.Capacity > 0 {
		opts = append(opts, WithCapacity(cfg.Capacity))
	}
	return New(est, patterns, append(opts, extra...)...)
}

// RunSim replays cfg's seeded workload against a fresh Manager over est
// and patterns and returns the deterministic scorecard. The same cfg
// yields a byte-identical scorecard at any worker count.
func RunSim(ctx context.Context, est *core.Estimator, patterns *pattern.Set, cfg SimConfig) (*Scorecard, error) {
	return runSim(ctx, est, patterns, cfg, nil)
}

func runSim(ctx context.Context, est *core.Estimator, patterns *pattern.Set, cfg SimConfig, rec eventRecorder) (*Scorecard, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	epochDur := time.Duration(cfg.EpochNs)
	m, err := newSimManager(est, patterns, cfg)
	if err != nil {
		return nil, err
	}

	// Preseed the initial fleet synchronously: queue depth must not
	// bound the initial population.
	gen := newGenerator(cfg.Seed, patterns)
	for i := 0; i < cfg.Stations; i++ {
		ev := gen.arrivalEvent()
		if rec != nil {
			if err := rec(0, ev); err != nil {
				return nil, err
			}
		}
		if !m.Arrive(ev) {
			return nil, fmt.Errorf("fleet: duplicate preseed station %d", i)
		}
	}

	for e := 0; e < cfg.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := gen.epochEvents(m, cfg, epochDur, uint32(e+1), rec); err != nil {
			return nil, err
		}
		if err := m.Step(ctx); err != nil {
			return nil, err
		}
	}

	sc := m.scorecard(cfg, gen.drops)
	sc.StationsFinal = m.Len()
	return sc, nil
}
