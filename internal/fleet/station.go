package fleet

import (
	"math"
	"math/bits"
	"time"

	"talon/internal/core"
	"talon/internal/sector"
)

// station is the cold per-link record a shard holds; the scan-hot fields
// (state, deadline, hint cell, sample residue, impairment flags)
// live in the parallel hotStation slice. The struct is deliberately
// small (no retained RNG state, no per-station goroutines) so a million
// stations stay within a couple hundred megabytes; all randomness is
// re-derived per training round from (manager seed, station ID, round).
type station struct {
	id StationID

	// Geometry in the AP's pattern frame.
	az, el, dist float64
	// pathlossDB caches 20·log10(dist/refDistM); dist is fixed at
	// arrival, so the per-probe link budget never recomputes the log.
	pathlossDB float64
	// driftDegPerSec moves az every epoch (mobility).
	driftDegPerSec float64

	// servedGain is the selected sector's effective gain toward the
	// station at selection time; the degrade check compares the current
	// gain against it.
	servedGain float64
	// curGain caches the serving sector's pattern gain at (az, el),
	// valid while gainValid holds; it is recomputed on drift and on
	// sector adoption (pure memoization — the cached value is always
	// exactly what gainToward would return).
	curGain float64
	// bestGain caches the ground-truth best sector gain at (az, el),
	// valid while bestValid holds; invalidated by drift only (sector
	// adoption does not move the station).
	bestGain float64

	// Impairments.
	blockEpochsLeft int
	blockAttenDB    float64
	faultLossFrac   float64 // consumed by the next training round

	// Lifecycle bookkeeping (virtual time).
	arrivedAt  time.Duration
	accrueFrom uint64 // start of the open accrual window (see accruing)

	// The narrow fields share the record's last 16 bytes, which keeps it
	// at 128.
	round uint32 // completed + in-flight training rounds
	// Current selection.
	sector     sector.ID
	haveSector bool
	gainValid  bool
	bestValid  bool
	// accruing marks an open accrual window: the station is quietly
	// tracking and the scan skips it, so its tracked epochs from
	// accrueFrom on are not booked yet (see Manager.settle).
	accruing bool
}

// Snapshot is the externally visible state of one station.
type Snapshot struct {
	ID       StationID
	State    State
	Sector   sector.ID
	HasLink  bool
	AzDeg    float64
	ElDeg    float64
	DistM    float64
	Rounds   uint32
	Degraded bool
}

// roundSeed derives the deterministic RNG seed of st's next training
// round. The stream depends only on (fleet seed, station, round), never
// on shard processing order, so batched selections are reproducible at
// any worker count.
func roundSeed(fleetSeed int64, id StationID, round uint32) int64 {
	h := uint64(fleetSeed) ^ 0x9e3779b97f4a7c15
	h = (h ^ uint64(id)) * 0x100000001b3
	h = (h ^ uint64(round)) * 0x100000001b3
	h ^= h >> 29
	return int64(h)
}

// The fleet link budget: a station at refDistM with a sector of mean
// peak gain sees refSNRDB (the true SNR, before the measurement model)
// before impairments.
const (
	refSNRDB = 8.0
	refDistM = 3.0
)

// trueSNR returns the noiseless SNR toward st of a sector whose pattern
// gain toward it is g, under the fleet's lightweight single-path channel:
// reference SNR, log-distance pathloss, the gain (normalized by the
// codebook's mean peak gain) and any active blockage attenuation. A
// missing gain (NaN) gives -Inf.
func (m *Manager) trueSNR(st *station, g float64) float64 {
	if math.IsNaN(g) {
		return math.Inf(-1)
	}
	snr := refSNRDB - st.pathlossDB + g - m.gainRef
	if st.blockEpochsLeft > 0 {
		snr -= st.blockAttenDB
	}
	return snr
}

// cachedBestGain returns the highest transmit-sector pattern gain toward
// st (Eq. 4 at the true direction; NaN when no sector has a sample
// there), the ground-truth optimum the SNR-loss distribution is measured
// against. The per-station memo reruns the codebook scan only when drift
// moved the station since the last call.
func (m *Manager) cachedBestGain(st *station) float64 {
	if !st.bestValid {
		ix := m.patterns.Index()
		_, st.bestGain = ix.BestSector(ix.Locate(st.az, st.el))
		st.bestValid = true
	}
	return st.bestGain
}

// refreshCurGain recomputes the serving-gain cache and maintains the
// hot record's recheck flag: a NaN serving gain (station off the
// measured grid) must keep the station in the scan's visit set so the
// degrade check sees it.
func (m *Manager) refreshCurGain(st *station, h *hotStation) {
	st.curGain = m.gainToward(st, st.sector)
	st.gainValid = true
	if st.curGain != st.curGain {
		h.flags |= flagRecheck
	} else {
		h.flags &^= flagRecheck
	}
}

// gainToward returns id's pattern gain toward st (math.NaN when the
// pattern has no sample there).
func (m *Manager) gainToward(st *station, id sector.ID) float64 {
	ix := m.patterns.Index()
	return ix.Gain(ix.Locate(st.az, st.el), id)
}

// effGain is gainToward minus any active blockage attenuation — the
// quantity the degrade check watches, so a blockage event pushes a
// tracked link over the degrade threshold just like drifting off the
// beam does.
func (m *Manager) effGain(st *station, id sector.ID) float64 {
	g := m.gainToward(st, id)
	if st.blockEpochsLeft > 0 {
		g -= st.blockAttenDB
	}
	return g
}

// synthProbes fills dst with the station's next training round: a random
// M-of-N probing subset swept over the air, each probe passed through
// the firmware measurement model, with any pending fault burst dropping
// a fraction of the reports. dst must have room for m.cfg.probeBudget
// entries. The round's RNG stream is derived from roundSeed through the
// manager's reseedable round RNG and the sample scratch — all reused
// across rounds, all only touched under stepMu (serve synthesizes
// serially; only the estimation fans out). The station is located on the
// pattern index once per round, not once per probe.
//
//talon:noalloc
func (m *Manager) synthProbes(st *station, dst []core.Probe) []core.Probe {
	rng := m.roundRNG
	rng.Reseed(roundSeed(m.cfg.seed, st.id, st.round))
	idx := rng.SampleInto(m.sampleIdx, len(m.txIDs), m.cfg.probeBudget)
	m.sampleIdx = idx[:0]
	// Keep stock sweep order, like dot11ad.SubSweepSchedule.
	ascending(idx, m.sampleSet)
	ix := m.patterns.Index()
	loc := ix.Locate(st.az, st.el)
	dst = dst[:0]
	for _, j := range idx {
		id := m.txIDs[j]
		pr := core.Probe{Sector: id}
		meas, ok := m.model.Observe(m.trueSNR(st, ix.Gain(loc, id)), rng)
		if ok && st.faultLossFrac > 0 && rng.Bool(st.faultLossFrac) {
			ok = false
		}
		if ok {
			pr.Meas, pr.OK = meas, true
		}
		dst = append(dst, pr)
	}
	st.faultLossFrac = 0 // the burst hit this round only
	return dst
}

// ascending puts idx — distinct indices, each below 64·len(set) — in
// ascending order without a sort: it marks them in the all-zero bitset
// set, then walks the set bits, clearing set again on the way. A Talon
// probe subset is one word.
//
//talon:noalloc
func ascending(idx []int, set []uint64) {
	for _, j := range idx {
		set[j>>6] |= 1 << (j & 63)
	}
	k := 0
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			idx[k] = w<<6 | bits.TrailingZeros64(word)
			k++
		}
		set[w] = 0
	}
}

// fallbackSector picks the strongest reported probe — the argmax the
// stock sweep would use — for rounds whose estimation failed. ok is
// false when no probe reported.
func fallbackSector(probes []core.Probe) (sector.ID, bool) {
	best, bestSNR, ok := sector.ID(0), math.Inf(-1), false
	for _, p := range probes {
		if p.OK && p.Meas.SNR > bestSNR {
			best, bestSNR, ok = p.Sector, p.Meas.SNR, true
		}
	}
	return best, ok
}
