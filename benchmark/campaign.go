package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"talon/internal/core"
	"talon/internal/eval"
	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/tracestore"
)

// The recorded campaign is campaignParts independent campaigns of
// campaignPartTrials trials each: a replay of one part is one operation,
// so a window holds hundreds of replay latencies instead of a
// handful of full passes.
const (
	campaignParts      = 16
	campaignPartTrials = 2048
	campaignM          = 14
)

// recordCampaigns records the workload's campaign parts under dir. The
// trial seeds come from the run seed, so each seed replays its own
// channel states and probe draws.
func recordCampaigns(ctx context.Context, e *env, plat *eval.Platform, dir string) ([]eval.CampaignConfig, []tracestore.Shard, error) {
	per := e.scaled(campaignPartTrials, 64)
	base := uint64(e.cfg.seed)<<32 | 1
	parts := make([]eval.CampaignConfig, campaignParts)
	var shards []tracestore.Shard
	sp := e.tr.begin(spRecord, e.setupSpan, -1)
	t0 := time.Now()
	for i := range parts {
		parts[i] = eval.CampaignConfig{
			Dir:       filepath.Join(dir, fmt.Sprintf("part%02d", i)),
			Trials:    per,
			M:         campaignM,
			SeedStart: base + uint64(i*per),
		}
		sh, err := eval.RecordCampaign(ctx, plat, parts[i])
		if err != nil {
			return nil, nil, err
		}
		shards = append(shards, sh...)
	}
	e.timeSetup("eval.record_s", time.Since(t0))
	e.tr.end(sp)
	return parts, shards, nil
}

// campaignReplay is offline evaluation throughput: trace decode plus the
// batch-major cold kernel, with no fleet and no warm hints.
type campaignReplay struct {
	plat   *eval.Platform
	parts  []eval.CampaignConfig
	shards []tracestore.Shard
}

func newCampaignReplay() workload { return &campaignReplay{} }

func (w *campaignReplay) setup(ctx context.Context, e *env) error {
	plat, err := e.buildPlatform(ctx, e.setupSpan)
	if err != nil {
		return err
	}
	parts, shards, err := recordCampaigns(ctx, e, plat, filepath.Join(e.tmp, "campaign"))
	if err != nil {
		return err
	}
	w.plat, w.parts, w.shards = plat, parts, shards
	return nil
}

func (w *campaignReplay) measure(ctx context.Context, e *env, m *measurement) error {
	first := make([][]byte, len(w.parts))
	var lossSum float64
	var lossN, trials, failures, drift, mismatch int64
	m.ops = make([]int64, 0, int(e.cfg.seconds*1000)+len(w.parts))

	m.startWindow()
	start := time.Now()
	deadline := start.Add(time.Duration(e.cfg.seconds * float64(time.Second)))
	for i := 0; i < len(w.parts) || time.Now().Before(deadline); i++ {
		k := i % len(w.parts)
		tr := e.traced(i)
		sp := tr.begin(spReplay, -1, i)
		t0 := time.Now()
		sc, err := eval.ReplayCampaign(ctx, w.plat, w.parts[k])
		m.ops = append(m.ops, int64(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
		m.selections += sc.Total.Trials
		// The scorecard names its shard directory, a per-run temporary
		// path; everything else in it must repeat byte for byte.
		sc.Config.Dir = ""
		blob, err := json.Marshal(sc)
		if err != nil {
			return err
		}
		ok := sc.Total.Drift == 0
		drift += sc.Total.Drift
		if first[k] == nil {
			first[k] = blob
			m.mixBytes(blob)
			trials += sc.Total.Trials
			failures += sc.Total.Failures
			lossSum += sc.Total.Loss.MeanDB * float64(sc.Total.Loss.Count)
			lossN += sc.Total.Loss.Count
		} else if !bytes.Equal(blob, first[k]) {
			ok = false
			mismatch++
		}
		if !ok {
			m.failed++
		}
	}
	m.windowS = time.Since(start).Seconds()
	m.endWindow()

	m.lossDB = lossSum / float64(lossN)
	m.failedFrac = float64(failures) / float64(trials)
	m.check("campaign.selection_drift", drift == 0, "%d replayed selections differ from the recorded ones", drift)
	m.check("campaign.scorecard_bytes", mismatch == 0, "%d replays changed their scorecard bytes", mismatch)

	m.layer["eval.replay_pass_s"] = sumSeconds(m.ops) * float64(len(w.parts)) / float64(len(m.ops))
	if e.cfg.trace {
		return w.decodePass(ctx, e, m)
	}
	return nil
}

// decodePass times one trace decode of the whole campaign with a
// count-only callback: the decode share of a replay pass.
func (w *campaignReplay) decodePass(ctx context.Context, e *env, m *measurement) error {
	codec, err := tracestore.NewTrialCodec(campaignM)
	if err != nil {
		return err
	}
	var records atomic.Int64
	sp := e.tr.begin(spDecode, -1, -1)
	t0 := time.Now()
	err = tracestore.ReplayShards(ctx, codec, w.shards, runtime.GOMAXPROCS(0), func(_ int, recs []tracestore.Trial) error {
		records.Add(int64(len(recs)))
		return nil
	})
	m.layer["tracestore.decode_s"] = time.Since(t0).Seconds()
	e.tr.end(sp)
	if err != nil {
		return err
	}
	var size int64
	for _, sh := range w.shards {
		fi, err := os.Stat(sh.Path)
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	m.layer["tracestore.records"] = float64(records.Load())
	m.layer["tracestore.bytes"] = float64(size)
	return nil
}

// linkSelect is the paper's single-AP path: one goroutine calls
// SelectSector on one recorded probe vector at a time, in a closed loop,
// so the compute latency of each training adds to it. It runs the same
// kernel as campaign-replay, one call at a time.
type linkSelect struct {
	est    *core.Estimator
	pats   *pattern.Set
	probes [][]core.Probe
	// az and el are each trial's ground-truth direction.
	az, el []float64
}

func newLinkSelect() workload { return &linkSelect{} }

func (w *linkSelect) setup(ctx context.Context, e *env) error {
	plat, err := e.buildPlatform(ctx, e.setupSpan)
	if err != nil {
		return err
	}
	_, shards, err := recordCampaigns(ctx, e, plat, filepath.Join(e.tmp, "link"))
	if err != nil {
		return err
	}
	codec, err := tracestore.NewTrialCodec(campaignM)
	if err != nil {
		return err
	}
	var n uint64
	for _, sh := range shards {
		n += sh.Header.Records
	}
	arena := make([]core.Probe, 0, int(n)*campaignM)
	w.probes, w.az, w.el = make([][]core.Probe, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	sp := e.tr.begin(spDecode, e.setupSpan, -1)
	err = tracestore.ReplayShards(ctx, codec, shards, 1, func(_ int, recs []tracestore.Trial) error {
		for _, r := range recs {
			lo := len(arena)
			for _, ps := range r.Probes {
				arena = append(arena, core.Probe{
					Sector: ps.Sector,
					Meas:   radio.Measurement{SNR: float64(ps.SNR), RSSI: float64(ps.RSSI)},
					OK:     ps.OK,
				})
			}
			w.probes = append(w.probes, arena[lo:len(arena):len(arena)])
			w.az, w.el = append(w.az, float64(r.AzDeg)), append(w.el, float64(r.ElDeg))
		}
		return nil
	})
	e.tr.end(sp)
	w.est, w.pats = plat.Estimator, plat.Patterns
	return err
}

// failedSector marks a pass-one call that returned the estimator's
// modeled selection error (sector IDs are 6-bit, so it is never real).
const failedSector = 0xFF

func (w *linkSelect) measure(ctx context.Context, e *env, m *measurement) error {
	if err := w.checkBatch(ctx, e, m); err != nil {
		return err
	}
	n := len(w.probes)
	sectors := make([]uint8, n)
	// css marks the probe vectors whose selection trusted the angle
	// estimate: neither a typed error nor a fallback.
	css := make([]bool, n)
	var mismatch int64
	// The latency buffer holds 5 µs calls for the whole window and is
	// touched before it, so peak RSS does not follow the call rate. A
	// kernel fast enough to fill it ends the window early.
	m.ops = make([]int64, int(e.cfg.seconds*200000)+n)
	clear(m.ops)
	m.ops = m.ops[:0]

	m.startWindow()
	start := time.Now()
	deadline := start.Add(time.Duration(e.cfg.seconds * float64(time.Second)))
	for i, now := 0, start; (i < n || now.Before(deadline)) && len(m.ops) < cap(m.ops); i++ {
		k := i % n
		tr := e.traced(i)
		sp := tr.begin(spSelect, -1, i)
		t0 := time.Now()
		sel, err := w.est.SelectSector(ctx, w.probes[k])
		now = time.Now()
		m.ops = append(m.ops, int64(now.Sub(t0)))
		tr.end(sp)
		got := uint8(sel.Sector)
		if err != nil {
			if !modeledError(err) {
				m.failed++
				continue
			}
			got = failedSector
		}
		if i < n {
			sectors[k] = got
			css[k] = err == nil && !sel.Fallback
		} else if sectors[k] != got {
			mismatch++
			m.failed++
		}
	}
	m.windowS = time.Since(start).Seconds()
	m.endWindow()
	m.selections = int64(len(m.ops))
	// About one call in ten returns a typed error or falls back, many of
	// them in 1 µs or less, against about 10 µs for a selection that runs
	// the whole correlation. The 1st percentile of all calls would land
	// among them, so the latency metric takes the CSS selections only.
	m.latency = make([]int64, 0, len(m.ops))
	for i, d := range m.ops {
		if css[i%n] {
			m.latency = append(m.latency, d)
		}
	}

	var tx []*pattern.Pattern
	for _, id := range w.pats.TXIDs() {
		tx = append(tx, w.pats.Get(id))
	}
	var loss float64
	var lossN, failures int64
	for k, s := range sectors {
		m.mix(uint64(s))
		if s == failedSector {
			failures++
			continue
		}
		if l, ok := selectionLoss(tx, w.pats.Get(sector.ID(s)), w.az[k], w.el[k]); ok {
			loss += l
			lossN++
		}
	}
	m.lossDB = loss / float64(lossN)
	m.failedFrac = float64(failures) / float64(n)
	m.check("link.repeat_passes", mismatch == 0, "%d calls chose another sector than on the first pass", mismatch)

	m.layer["core.select_s"] = sumSeconds(m.ops)
	m.layer["core.select_us_p999"] = quantileInt(m.ops, 0.999) / 1e3
	return nil
}

// checkBatchN is how many probe vectors the single-call path is checked
// against SelectSectorBatch on.
const checkBatchN = 1000

// checkBatch runs before the window: SelectSector must return exactly
// what SelectSectorBatch returns for the same probes.
func (w *linkSelect) checkBatch(ctx context.Context, e *env, m *measurement) error {
	k := min(checkBatchN, len(w.probes))
	sp := e.tr.begin(spBatchCheck, -1, -1)
	defer e.tr.end(sp)
	res, err := w.est.SelectSectorBatch(ctx, core.BatchOf(w.probes[:k]), 0)
	if err != nil {
		return err
	}
	bad := 0
	for i := 0; i < k; i++ {
		sel, err := w.est.SelectSector(ctx, w.probes[i])
		if !sameSelection(sel, err, res[i]) {
			bad++
		}
	}
	m.check("link.single_equals_batch", bad == 0, "%d of the first %d selections differ from SelectSectorBatch", bad, k)
	return nil
}

func sameSelection(a core.Selection, aerr error, b core.BatchResult) bool {
	if aerr != nil || b.Err != nil {
		return aerr != nil && b.Err != nil && aerr.Error() == b.Err.Error()
	}
	s := b.Selection
	bits := math.Float64bits
	return a.Sector == s.Sector && a.Fallback == s.Fallback && bits(a.Gain) == bits(s.Gain) &&
		bits(a.AoA.Az) == bits(s.AoA.Az) && bits(a.AoA.El) == bits(s.AoA.El) &&
		bits(a.AoA.Corr) == bits(s.AoA.Corr) && a.AoA.Used == s.AoA.Used && a.AoA.Cell == s.AoA.Cell
}

// selectionLoss is the ground-truth SNR loss of serving a station at
// (az, el) on chosen: the best TX sector's pattern gain toward it minus
// chosen's. Link budget and blockage attenuate every sector alike, so
// the gains alone decide it. ok is false where either gain is missing.
func selectionLoss(tx []*pattern.Pattern, chosen *pattern.Pattern, az, el float64) (float64, bool) {
	if chosen == nil {
		return 0, false
	}
	best := math.Inf(-1)
	for _, p := range tx {
		if g := p.At(az, el); g > best {
			best = g
		}
	}
	got := chosen.At(az, el)
	return best - got, !math.IsInf(best, -1) && !math.IsNaN(got)
}

// modeledError reports whether err is the estimator's typed answer to a
// probe vector without directional information: a selection failure the
// workload models, not an operation failure.
func modeledError(err error) bool {
	return errors.Is(err, core.ErrTooFewProbes) || errors.Is(err, core.ErrDegenerateSurface)
}
