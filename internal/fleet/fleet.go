// Package fleet is the fleet-scale alignment service: a sharded session
// manager that runs every station↔AP link through the deterministic
// lifecycle state machine (idle → train → track → degrade → retrain) and
// funnels ALL sector estimation through core.SelectSectorBatch, so a
// single worker pool amortizes the per-link estimation cost across tens
// of thousands to millions of concurrent links.
//
// The package trades the frame-level fidelity of internal/wil for a
// lightweight per-station channel model: reference SNR, log-distance
// pathloss and the measured 3D sector patterns, with the firmware defect
// model of internal/radio applied probe by probe.
// Everything is driven by virtual time in fixed epochs, so a fixed seed
// reproduces the same fleet byte for byte at any shard or worker count.
//
// Station state is stored structure-of-arrays per shard: 24-byte hot
// records (state, deadline, timer-heap position, last grid cell, sample
// residue, impairment flags) beside 128-byte cold station records, and a
// slot table of 4-byte cells maps station IDs to slots. The per-epoch
// scan is event-driven: it visits only the stations with work due —
// arrivals, stations an event touched, impaired stations and those whose
// deadline fires, popped from a per-shard timer heap that holds one
// entry per armed station — and books the quiet tracked epochs of every
// other station lazily, so a mostly static fleet's epoch cost follows
// its activity, not its size.
//
// Memory follows traffic the same way. Per-shard event queues start
// empty, hold 64 events from their first Step on and grow on demand up
// to the queue depth (see reserve), and the scan and serve scratch (the
// pending queue, request lists, visit sets, due lists and event
// buffers) shrinks back after a burst: a buffer whose capacity exceeds
// four times its use in a Step, a use below 64 entries counting as 64,
// is reallocated at twice that (see trimmed).
package fleet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"talon/internal/core"
	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// config is Manager's tunable surface, set through Options.
type config struct {
	shards           int
	seed             int64
	epoch            time.Duration
	probeBudget      int
	retrainInterval  time.Duration
	degradeDropDB    float64
	capacity         int
	batchWorkers     int
	queueDepth       int
	lossSampleStride uint64
	warmStart        bool
}

// Option configures a Manager.
type Option func(*config)

// WithShards sets the shard count (rounded up to a power of two so
// stations shard by masking their low ID bits). Default 256.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithSeed sets the fleet seed that every per-station, per-round
// probing stream derives from. Default 1.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithEpoch sets the virtual-time length of one Step. Default 100ms.
func WithEpoch(d time.Duration) Option { return func(c *config) { c.epoch = d } }

// WithProbeBudget sets the compressive probe count M per training round.
// Default 14 (the paper's sweet spot).
func WithProbeBudget(m int) Option { return func(c *config) { c.probeBudget = m } }

// WithRetrainInterval sets the staleness interval after which a tracked
// link retrains. Default dot11ad.SweepInterval (1s).
func WithRetrainInterval(d time.Duration) Option {
	return func(c *config) { c.retrainInterval = d }
}

// WithDegradeDropDB sets how far the serving sector's gain may fall
// below its value at selection time before a tracked link degrades.
// Default 3dB.
func WithDegradeDropDB(db float64) Option { return func(c *config) { c.degradeDropDB = db } }

// WithCapacity caps how many training rounds one Step may serve;
// overflow waits in FIFO order for later epochs (that queueing is what
// puts mass in the latency tail). 0 (default) serves everything.
func WithCapacity(n int) Option { return func(c *config) { c.capacity = n } }

// WithBatchWorkers sets the worker count handed to
// core.SelectSectorBatch and to the shard scan pool. Default 0
// (GOMAXPROCS).
func WithBatchWorkers(n int) Option { return func(c *config) { c.batchWorkers = n } }

// WithQueueDepth sets the most events one shard may queue between two
// Steps; Dispatch drops (and counts) events beyond it. A queue reserves
// no more than its traffic needs: 64 events (or the depth, if smaller),
// growing on demand up to the depth. A shard keeps two such buffers —
// the queue and the events the last Step applied — so under a flooding
// producer it holds up to twice the depth in memory. Default 1024.
func WithQueueDepth(n int) Option { return func(c *config) { c.queueDepth = n } }

// WithLossSampleStride records the tracking SNR loss of one in n
// (station, epoch) pairs instead of all of them. Default 16. The stride
// must fit in 32 bits — the scan keeps each station's sample residue as
// a packed uint32.
func WithLossSampleStride(n int) Option {
	return func(c *config) { c.lossSampleStride = uint64(n) }
}

// WithWarmStart toggles warm-start re-estimation: when on (the default),
// every training round carries the station's previous selection cell as
// a core.BatchItem hint, letting the quantized kernel score only the
// local window around it (falling back to the full search whenever the
// correlation-margin guard rejects the local winner). Hints never change
// a float64-kernel selection; on the quantized kernel they stay within
// the warm/cold equivalence budget (see core's warm-start contract).
func WithWarmStart(on bool) Option { return func(c *config) { c.warmStart = on } }

func defaultConfig() config {
	return config{
		shards:           256,
		seed:             1,
		epoch:            100 * time.Millisecond,
		probeBudget:      14,
		retrainInterval:  time.Second,
		degradeDropDB:    3,
		capacity:         0,
		batchWorkers:     0,
		queueDepth:       1024,
		lossSampleStride: 16,
		warmStart:        true,
	}
}

// Per-station impairment flags on the hot record. A station with any
// flag set needs the per-station scan every epoch; with flags == 0 and
// tracking it is quiet — no mobility drift, no active blockage and a
// valid (non-NaN) cached serving gain, exactly the conditions under
// which the degrade check provably cannot fire between trainings.
const (
	// flagDrift marks a nonzero mobility drift rate.
	flagDrift uint8 = 1 << iota
	// flagBlocked marks an active blockage (blockEpochsLeft > 0).
	flagBlocked
	// flagRecheck marks a serving gain that cached to NaN (the station
	// sits off the measured pattern grid); the scan re-runs the degrade
	// check, which treats NaN as degraded.
	flagRecheck
)

// stateFree marks a hot record whose slot holds no station (departed,
// awaiting reuse), so stale due-list entries can tell.
const stateFree = numStates

// hotStation is the 24-byte per-station record the epoch scan reads to
// decide what a visited station does: lifecycle state, the one deadline
// that can fire (retrain staleness while tracking, backoff expiry while
// degraded) and its timer-heap position, the loss-sample residue, the
// warm-start hint cell and the impairment flags.
type hotStation struct {
	// deadline is the next scheduled scan action: while tracking, the
	// staleness retrain (last training end + retrain interval); while
	// degraded, the backoff expiry.
	deadline time.Duration
	// cell is the station's last selection's dense-grid cell, fed back
	// as the next round's warm-start hint (core.NoCell after a failure
	// or before the first selection).
	cell core.Cell
	// sampleRes caches id % lossSampleStride so the per-epoch sampling
	// test is one uint32 compare against a per-epoch constant.
	sampleRes uint32
	// tpos is 1 + the index of the station's timer-heap entry, or 0 when
	// it has none.
	tpos  int32
	state State
	flags uint8
}

// timer is one timer-heap entry: the epoch at which the station in slot
// has its deadline due. A station has an entry exactly while it is armed
// (tracking or degraded), at fireEpoch of its deadline; rearming moves
// the entry in place and a departure removes it, so no entry is stale.
type timer struct {
	fire uint64
	slot int32
}

// visitKey is one entry of a scan's visit set, sorted by station ID so
// training requests queue in ascending-ID order.
type visitKey struct {
	id   StationID
	slot int32
}

// shard owns one slice of the station population, stored
// structure-of-arrays: recs (cold full records) and hot (scan records)
// are parallel slot-indexed slices, table maps station IDs to slots
// (see table.go) and free recycles departed slots. due and timers tell
// the scan which stations to visit; every other station is quietly
// tracking, or has a training round in flight.
type shard struct {
	mu    sync.Mutex
	table []int32
	recs  []station
	hot   []hotStation
	free  []int32

	// qmu guards events, the queue Dispatch appends to (at most
	// queueDepth entries). The scan swaps it with drain under qmu and
	// applies drain under mu alone, so Dispatch holds qmu for one append
	// and never waits for a scan. qmu nests inside mu, never around it.
	qmu    sync.Mutex
	events []Event
	// drain holds the events the last scan applied; it becomes the next
	// empty queue at the following swap.
	drain []Event

	// due lists the slots the next scan visits whatever their deadline:
	// arrivals, stations an event touched, and stations that need the
	// per-station logic every epoch (impairment flags set, or tracking
	// under a degrade-always threshold). It may hold duplicates and
	// departed slots; the scan drops both.
	due []int32
	// timers is a min-heap on fire epoch holding one entry per tracked
	// or degraded station, at its deadline's fire epoch.
	timers []timer
	// cursor is the first epoch this shard has not scanned yet. Quiet
	// tracked epochs accrue up to it when a station departs or the
	// scorecard is read, whether or not a Step is in progress.
	cursor uint64

	// reqs and visit are per-scan scratch, written only by the one scan
	// worker that owns the shard during a Step. partial collects the
	// scan's tally and the accruals of departures; Step merges and
	// resets it under the shard lock.
	reqs    []request
	visit   []visitKey
	partial tally
}

// request is one queued training round; its shard is shardOf(id).
type request struct {
	id StationID
	// trigger is the virtual time the round was requested; the epoch
	// boundary it completes at minus trigger is its queueing latency.
	trigger time.Duration
	retrain bool
}

// Manager is the sharded fleet session service. All methods are safe for
// concurrent use; Step serializes against itself.
type Manager struct {
	cfg      config
	est      *core.Estimator
	patterns *pattern.Set
	model    radio.MeasurementModel
	txIDs    []sector.ID
	// gainRef is the codebook's mean peak gain; trueSNR normalizes
	// pattern gains by it so refSNRDB means "an average sector, on
	// boresight, at the reference distance".
	gainRef float64

	shards []*shard
	mask   uint64

	// stepMu serializes Step; the scorecard tally and pending queue are
	// only touched under it. The virtual clock is atomic because
	// arrivals stamp arrivedAt under their shard lock alone, which may
	// interleave with a concurrent Step advancing the epoch.
	stepMu  sync.Mutex
	now     atomic.Int64 // time.Duration nanoseconds
	epoch   uint64
	pending []request
	acc     tally

	// Per-Step serve scratch reused across epochs (all guarded by
	// stepMu): the probe arena sliced into per-round vectors, the batch
	// item, result and live-index buffers, one reseedable round RNG, the
	// probe-subset sample scratch and the bitset that orders it.
	arena     []core.Probe
	items     []core.BatchItem
	results   []core.BatchResult
	live      []int32
	roundRNG  *stats.RNG
	sampleIdx []int
	sampleSet []uint64
}

// New builds a fleet manager over the given estimator and its pattern
// set. The estimator must have been built over the same patterns — the
// manager synthesizes probes from them and funnels every selection
// through est.SelectSectorBatch.
func New(est *core.Estimator, patterns *pattern.Set, opts ...Option) (*Manager, error) {
	if est == nil {
		return nil, errors.New("fleet: nil estimator")
	}
	if patterns == nil || len(patterns.TXIDs()) == 0 {
		return nil, errors.New("fleet: pattern set has no TX sectors")
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.epoch <= 0 {
		return nil, errors.New("fleet: epoch must be positive")
	}
	if cfg.lossSampleStride == 0 {
		cfg.lossSampleStride = 1
	}
	if cfg.lossSampleStride > math.MaxUint32 {
		return nil, fmt.Errorf("fleet: loss sample stride %d exceeds 32 bits", cfg.lossSampleStride)
	}
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = 1024
	}
	txIDs := patterns.TXIDs()
	if cfg.probeBudget <= 0 || cfg.probeBudget > len(txIDs) {
		return nil, fmt.Errorf("fleet: probe budget %d outside 1..%d", cfg.probeBudget, len(txIDs))
	}
	cfg.shards = ceilPow2(cfg.shards)
	m := &Manager{
		cfg:       cfg,
		est:       est,
		patterns:  patterns,
		model:     radio.DefaultMeasurementModel(),
		txIDs:     txIDs,
		shards:    make([]*shard, cfg.shards),
		mask:      uint64(cfg.shards - 1),
		roundRNG:  stats.NewFastRNG(0),
		sampleSet: make([]uint64, (len(txIDs)+63)/64),
		gainRef:   patterns.MeanPeakGain(),
	}
	for i := range m.shards {
		m.shards[i] = &shard{}
		m.shards[i].partial.init()
	}
	m.acc.init()
	return m, nil
}

func ceilPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (m *Manager) shardOf(id StationID) *shard { return m.shards[uint64(id)&m.mask] }

// Len returns the current station count across all shards.
func (m *Manager) Len() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += len(sh.recs) - len(sh.free)
		sh.mu.Unlock()
	}
	return n
}

// Arrive admits a station synchronously from an arrival event. It
// returns false if the station already exists (the event is ignored).
func (m *Manager) Arrive(ev Event) bool {
	if ev.DistM <= 0 {
		ev.DistM = refDistM
	}
	sh := m.shardOf(ev.Station)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return m.arriveLocked(sh, ev)
}

func (m *Manager) arriveLocked(sh *shard, ev Event) bool {
	if _, ok := sh.lookup(ev.Station); ok {
		return false
	}
	var slot int32
	if n := len(sh.free); n > 0 {
		slot = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		slot = int32(len(sh.recs))
		sh.recs = append(sh.recs, station{})
		sh.hot = append(sh.hot, hotStation{})
	}
	dist := ev.DistM
	sh.recs[slot] = station{
		id:             ev.Station,
		az:             wrapAz(ev.AzDeg),
		el:             ev.ElDeg,
		dist:           dist,
		pathlossDB:     20 * math.Log10(dist/refDistM),
		driftDegPerSec: ev.DriftDegPerSec,
		arrivedAt:      time.Duration(m.now.Load()),
	}
	var flags uint8
	if ev.DriftDegPerSec != 0 {
		flags |= flagDrift
	}
	sh.hot[slot] = hotStation{
		state:     StateIdle,
		cell:      core.NoCell,
		sampleRes: uint32(uint64(ev.Station) % m.cfg.lossSampleStride),
		flags:     flags,
	}
	sh.insertSlot(slot)
	sh.due = append(sh.due, slot)
	metArrivals.Inc()
	metStations.Add(1)
	return true
}

// Depart removes a station synchronously. It returns false if the
// station is unknown. A pending training request of a departed station
// is skipped when its batch slot would be served.
func (m *Manager) Depart(id StationID) bool {
	sh := m.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return m.departLocked(sh, id)
}

func (m *Manager) departLocked(sh *shard, id StationID) bool {
	cell := sh.cellOf(id)
	if cell < 0 {
		return false
	}
	slot := sh.table[cell] - 1
	// Book the quiet tracked epochs up to the shard's scan cursor. A
	// queued round stays pending: serve skips it and decrements the
	// pending gauge then.
	m.settle(&sh.recs[slot], sh.cursor, &sh.partial)
	if p := sh.hot[slot].tpos; p != 0 {
		sh.dropTimer(int(p - 1))
	}
	sh.deleteCell(cell)
	sh.recs[slot] = station{}
	sh.hot[slot] = hotStation{state: stateFree}
	sh.free = append(sh.free, slot)
	metDepartures.Inc()
	metStations.Add(-1)
	return true
}

// Dispatch enqueues an event on its station's shard queue, to be applied
// at the start of the next Step. It returns false (and counts a drop)
// when the shard already holds queueDepth events.
//
//talon:noalloc
func (m *Manager) Dispatch(ev Event) bool {
	sh := m.shardOf(ev.Station)
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	if len(sh.events) >= m.cfg.queueDepth {
		metQueueDrops.Inc()
		return false
	}
	q := m.reserve(sh.events)
	sh.events = q[:len(q)+1]
	sh.events[len(q)] = ev
	return true
}

// reserve returns the event buffer q if it has room for one more event,
// and otherwise a copy of q with room: twice its length, at least
// trimFloor events and at most the queue depth, so no buffer outgrows
// the depth. scanShard reserves each fresh queue, so from its first
// Step on a shard takes trimFloor events between two Steps without
// allocating.
//
//talon:noalloc
func (m *Manager) reserve(q []Event) []Event {
	if len(q) < cap(q) {
		return q
	}
	//lint:allow noalloc -- grow-on-demand: a queue grows only past the events one shard received between two Steps, and keeps that size until a quieter Step trims it (see TestDispatchZeroAllocSteadyState)
	r := make([]Event, len(q), min(max(2*len(q), trimFloor), m.cfg.queueDepth))
	copy(r, q)
	return r
}

// Snapshot returns the station's current state, or ok=false if unknown.
func (m *Manager) Snapshot(id StationID) (Snapshot, bool) {
	sh := m.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, ok := sh.lookup(id)
	if !ok {
		return Snapshot{}, false
	}
	st, h := &sh.recs[slot], &sh.hot[slot]
	return Snapshot{
		ID:       st.id,
		State:    h.state,
		Sector:   st.sector,
		HasLink:  st.haveSector,
		AzDeg:    st.az,
		ElDeg:    st.el,
		DistM:    st.dist,
		Rounds:   st.round,
		Degraded: h.state == StateDegraded,
	}, true
}

// Now returns the manager's virtual clock (the end of the last Step).
func (m *Manager) Now() time.Duration {
	return time.Duration(m.now.Load())
}

// Pending returns the number of training rounds queued for service.
func (m *Manager) Pending() int {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	return len(m.pending)
}

// scanWorkers resolves the worker count for the shard scan pool.
func (m *Manager) scanWorkers() int {
	w := m.cfg.batchWorkers
	if procs := runtime.GOMAXPROCS(0); w <= 0 || w > procs {
		w = procs
	}
	if w > len(m.shards) {
		w = len(m.shards)
	}
	return w
}

// wrapAz folds an azimuth into [-180, 180).
func wrapAz(az float64) float64 {
	az = math.Mod(az+180, 360)
	if az < 0 {
		az += 360
	}
	return az - 180
}
