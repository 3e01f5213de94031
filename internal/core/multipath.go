package core

import (
	"context"
	"math"

	"talon/internal/geom"
	"talon/internal/pattern"
)

// Successive-cancellation multipath search (the compressive multi-path
// estimation of Marzi et al. that the paper cites as related work),
// behind SelectWithBackup. Peak 0 is the production estimate; each
// later peak comes from cancelling the previous one (peakSearch.next),
// with every grid cell within the minimum separation of an accepted peak
// suppressed.

// peakRelThresh ends the search at the first later peak whose
// correlation falls below this fraction of peak 0's.
const peakRelThresh = 0.1

// peakSearch is a successive-cancellation search in progress on one
// recycled scratch item. An estimate exists, so gatherQuant imputed every
// unreported probe and the item's component i is probes[i].
type peakSearch struct {
	e       *Estimator
	it      *quantItem
	probes  []Probe
	skip    []uint64 // bitset of suppressed grid cells, row-major
	scan    *scanScratch
	cosSep  float64 // cosine of the minimum peak separation
	minCorr float64 // correlation a later peak must reach
	last    AoAEstimate
}

// startPeaks runs the production estimate of probes in bs — the
// one-item sub-chunk SelectSector runs — and returns the search with
// that estimate as its last peak, or the estimate's error. minSepDeg <= 0
// selects 15°.
func (e *Estimator) startPeaks(ctx context.Context, bs *quantBatchScratch, probes []Probe, minSepDeg float64) (peakSearch, error) {
	batch := [1]BatchItem{{Probes: probes}}
	if _, err := e.quantChunk(ctx, &bs.scan, batch[:], bs.items[:1]); err != nil {
		return peakSearch{}, err
	}
	it := &bs.items[0]
	if it.err != nil {
		return peakSearch{}, it.err
	}
	if minSepDeg <= 0 {
		minSepDeg = 15
	}
	bs.skip = append(bs.skip[:0], make([]uint64, (len(e.en.dirs)+63)/64)...)
	return peakSearch{e: e, it: it, probes: probes, skip: bs.skip, scan: &bs.scan, last: it.aoa,
		cosSep: math.Cos(geom.Deg2Rad(minSepDeg)), minCorr: peakRelThresh * it.aoa.Corr}, nil
}

// next suppresses the grid cells closer than the separation to the last
// peak's cell (a dot product of unit vectors against cos(minSepDeg))
// and subtracts the last peak's path from both measurement vectors,
// exposing weaker paths the dominant one masks. One exhaustive int16
// scan of the unsuppressed cells and the float epilogue then give the
// next peak; ok is false when it does not reach minCorr.
func (s *peakSearch) next(ctx context.Context) (pk AoAEstimate, ok bool, err error) {
	e, en, it := s.e, s.e.en, s.it
	ai, ei, _ := s.last.Cell.split()
	p := en.dirs[ei*len(en.az)+ai]
	for i, d := range en.dirs {
		if d.Dot(p) > s.cosSep {
			s.skip[i>>6] |= 1 << (i & 63)
		}
	}
	ix := e.patterns.Index()
	l := ix.Locate(s.last.Az, s.last.El)
	cancelPath(ix, l, s.probes, it.snrDB)
	cancelPath(ix, l, s.probes, it.rssiDB)
	it.offS = windowOffset(inDictMax(it.snrDB, it.qv.cols))
	it.offR = windowOffset(inDictMax(it.rssiDB, it.qv.cols))
	it.quantize(en.rowQ, en.rowC)
	bestA, bestE, bestW, err := en.denseArgmaxQ(ctx, s.scan, &it.qv, s.skip, e.opts.SNROnly)
	s.scan.flush()
	if err != nil || bestW <= 0 {
		return AoAEstimate{}, false, err
	}
	pk = e.quantEpilogue(it, bestA, bestE)
	if !(pk.Corr > 0 && pk.Corr >= s.minCorr) {
		return AoAEstimate{}, false, nil
	}
	s.last = pk
	return pk, true, nil
}

// cancelPath subtracts, in the power domain, the least-squares-scaled
// pattern contribution of a path at l from a gathered dB vector whose
// component i is probes[i]. Components never drop below a small floor so
// later correlations stay well defined.
//
//talon:noalloc
func cancelPath(ix *pattern.Index, l pattern.Loc, probes []Probe, db []float64) {
	var dot, nx, maxPow float64
	for i, p := range probes {
		x := math.Pow(10, ix.Gain(l, p.Sector)/10)
		if math.IsNaN(x) {
			continue
		}
		pw := math.Pow(10, db[i]/10)
		dot += pw * x
		nx += x * x
		if pw > maxPow {
			maxPow = pw
		}
	}
	if nx == 0 || maxPow == 0 {
		return
	}
	beta, floor := dot/nx, 1e-6*maxPow
	for i, p := range probes {
		x := math.Pow(10, ix.Gain(l, p.Sector)/10)
		if math.IsNaN(x) {
			continue
		}
		residual := math.Pow(10, db[i]/10) - beta*x
		if residual < floor {
			residual = floor
		}
		db[i] = 10 * math.Log10(residual)
	}
}

// BackupSelection pairs the primary compressive selection with a backup
// sector toward the strongest secondary path — the proactive
// alternative-beam idea of BeamSpy (Sur et al.), built on the multipath
// estimate: when the primary path gets blocked, the link can switch to
// the backup sector without retraining.
type BackupSelection struct {
	Primary Selection
	// Backup is the best sector toward the secondary path; valid only
	// when HasBackup.
	Backup    Selection
	HasBackup bool
}

// SelectWithBackup runs compressive selection and, when the multipath
// search finds a distinct secondary path, also returns the best sector
// toward it (guaranteed different from the primary sector). The primary
// is exactly what SelectSector returns, fallbacks and errors included.
// The secondary search runs whenever an estimate exists, even when the
// primary falls back, and tries up to two secondary peaks. A cancelled
// context propagates ctx.Err() instead of degrading to the sweep
// fallback.
func (e *Estimator) SelectWithBackup(ctx context.Context, probes []Probe, minSepDeg float64) (BackupSelection, error) {
	bs := e.en.getBatchScratch()
	defer e.en.putBatchScratch(bs)
	s, err := e.startPeaks(ctx, bs, probes, minSepDeg)
	if err != nil && isCtxErr(err) {
		return BackupSelection{}, err
	}
	var out BackupSelection
	if out.Primary, err = e.finishSelection(probes, s.last, err); err != nil || s.it == nil {
		return out, err
	}
	for i := 0; i < 2; i++ {
		pk, ok, err := s.next(ctx)
		if err != nil {
			return BackupSelection{}, err
		}
		if !ok {
			break
		}
		if id, gain := e.patterns.BestSector(pk.Az, pk.El); !math.IsNaN(gain) && id != out.Primary.Sector {
			out.Backup, out.HasBackup = Selection{Sector: id, Gain: gain, AoA: pk}, true
			break
		}
	}
	return out, nil
}
