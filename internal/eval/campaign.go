package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"talon/internal/core"
	"talon/internal/geom"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/tracestore"
)

// The campaign link budget mirrors the fleet simulator's lightweight
// single-path channel: a station at the reference distance on a sector
// of mean peak gain sees the reference SNR before impairments.
const (
	campaignRefSNRDB = 16.0
	campaignRefDistM = 3.0
)

// selFailedSector marks a trial whose record-time selection hard-errored
// (sector IDs are 6-bit on this hardware, so 0xFF is never a real ID).
const selFailedSector = sector.ID(0xFF)

// CampaignConfig parameterizes the out-of-core record/replay campaign.
type CampaignConfig struct {
	// Dir is the shard directory, Base the shard file basename
	// (defaults "campaign-shards" and "campaign").
	Dir  string `json:"dir"`
	Base string `json:"base"`
	// Trials is the campaign size (default 20000). Each trial draws an
	// independent channel state and probing subset from its own seed.
	Trials int `json:"trials"`
	// M is the probe budget per trial (default 14).
	M int `json:"m"`
	// SeedStart is the first trial seed; trial i uses SeedStart+i
	// (default 1).
	SeedStart uint64 `json:"seed_start"`
	// SplitSeed divides in-sample from out-of-sample trials: seeds below
	// it are in-sample. It must fall on a shard boundary; the default is
	// the largest boundary at or below 80% of the campaign.
	SplitSeed uint64 `json:"split_seed"`
	// RecordsPerShard and BlockRecords shape the trace store layout
	// (defaults: an eighth of the campaign per shard, 2048-record
	// blocks).
	RecordsPerShard int `json:"records_per_shard"`
	BlockRecords    int `json:"block_records"`
	// Workers bounds record-time batch selection and replay-time shard
	// fan-out (default runtime.GOMAXPROCS(0)). It is an execution
	// detail, not part of the campaign's identity, so it is excluded
	// from the scorecard JSON — the artifact must be byte-identical at
	// any worker count.
	Workers int `json:"-"`
}

func (c *CampaignConfig) defaults() {
	if c.Dir == "" {
		c.Dir = "campaign-shards"
	}
	if c.Base == "" {
		c.Base = "campaign"
	}
	if c.Trials <= 0 {
		c.Trials = 20000
	}
	if c.M <= 0 {
		c.M = 14
	}
	if c.SeedStart == 0 {
		c.SeedStart = 1
	}
	if c.RecordsPerShard <= 0 {
		c.RecordsPerShard = (c.Trials + 7) / 8
	}
	if c.BlockRecords <= 0 {
		c.BlockRecords = 2048
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SplitSeed == 0 {
		rps := uint64(c.RecordsPerShard)
		c.SplitSeed = c.SeedStart + uint64(c.Trials)*4/5/rps*rps
	}
}

// campaignTrueSNR is the noiseless SNR toward the trial's channel state of
// a sector whose pattern gain toward the trial direction is g (NaN when
// missing, giving -Inf). linkSNR already folds in the distance pathloss;
// atten models an omnidirectional blockage. The transform is monotone
// non-decreasing in g under floating-point rounding, so the best sector's
// SNR is campaignTrueSNR of the best gain.
func campaignTrueSNR(g, linkSNR, atten, gainRef float64) float64 {
	if math.IsNaN(g) {
		return math.Inf(-1)
	}
	return linkSNR + g - gainRef - atten
}

// campaignSeed whitens a trial seed so consecutive trials start their
// SplitMix64 streams far apart.
func campaignSeed(seed uint64) int64 {
	h := seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int64(h)
}

// RecordCampaign draws cfg.Trials independent channel states, synthesizes
// the probe measurements each trial's compressive training would see,
// runs the record-time selection and streams everything into seeded
// trace-store shards under cfg.Dir. Stale shards of the same basename are
// removed first, so the directory afterwards holds exactly this
// campaign. Every quantity the replay consumes is rounded through the
// store's float32 columns *before* the record-time selection, so a
// replay recomputes bit-identical selections (drift 0).
func RecordCampaign(ctx context.Context, p *Platform, cfg CampaignConfig) ([]tracestore.Shard, error) {
	cfg.defaults()
	stale, err := filepath.Glob(filepath.Join(cfg.Dir, cfg.Base+"-*.bin"))
	if err != nil {
		return nil, err
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return nil, err
		}
	}
	codec, err := tracestore.NewTrialCodec(cfg.M)
	if err != nil {
		return nil, err
	}
	w, err := tracestore.NewWriter(codec, cfg.Dir, cfg.Base, tracestore.WriterOptions{
		RecordsPerShard: cfg.RecordsPerShard,
		BlockRecords:    cfg.BlockRecords,
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()

	txIDs := p.Patterns.TXIDs()
	ix := p.Patterns.Index()
	gainRef := p.Patterns.MeanPeakGain()
	model := radio.DefaultMeasurementModel()

	// Trials accumulate into bounded batches: one SelectSectorBatch call
	// per batch keeps the estimation funnel hot without ever holding the
	// whole campaign in memory. A batch's probe slices are carved from
	// two arenas: the store samples from a fresh one per batch, since the
	// writer keeps appended records until its block flush, and the
	// selection's probes from one reused arena, which the batch call no
	// longer reads once it returns. One generator reseeded per trial and
	// one permutation buffer serve every trial.
	const batchTrials = 4096
	pending := make([]tracestore.Trial, 0, batchTrials)
	probesList := make([]core.BatchItem, 0, batchTrials)
	probeArena := make([]core.Probe, 0, min(batchTrials, cfg.Trials)*cfg.M)
	var samples []tracestore.ProbeSample
	var perm []int
	rng := stats.NewFastRNG(0)

	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		results, err := p.Estimator.SelectSectorBatch(ctx, probesList, cfg.Workers)
		if err != nil {
			return err
		}
		for i := range pending {
			sel, serr := results[i].Selection, results[i].Err
			if serr != nil {
				if errors.Is(serr, context.Canceled) || errors.Is(serr, context.DeadlineExceeded) {
					return serr
				}
				pending[i].SelSector = selFailedSector
			} else {
				pending[i].SelSector = sel.Sector
				pending[i].SelFallback = sel.Fallback
				pending[i].SelAzDeg = float32(sel.AoA.Az)
				pending[i].SelElDeg = float32(sel.AoA.El)
			}
			if err := w.Append(pending[i].Seed, pending[i]); err != nil {
				return err
			}
		}
		metTrials.Add(int64(len(pending)))
		metBatchTrials.Add(int64(len(pending)))
		pending = pending[:0]
		probesList = probesList[:0]
		probeArena = probeArena[:0]
		return nil
	}

	for i := 0; i < cfg.Trials; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := cfg.SeedStart + uint64(i)
		rng.Reseed(campaignSeed(seed))
		rec := tracestore.Trial{
			Seed:  seed,
			AzDeg: float32(rng.Uniform(-60, 60)),
			ElDeg: float32(rng.Uniform(0, 16)),
			DistM: float32(rng.Uniform(1, 10)),
		}
		if rng.Bool(0.1) {
			rec.AttenDB = float32(rng.Uniform(5, 25))
		}
		rec.LinkSNR = float32(campaignRefSNRDB - 20*math.Log10(float64(rec.DistM)/campaignRefDistM))

		idx := rng.SampleInto(perm, len(txIDs), cfg.M)
		perm = idx
		sort.Ints(idx)
		loc := ix.Locate(float64(rec.AzDeg), float64(rec.ElDeg))
		linkSNR, atten := float64(rec.LinkSNR), float64(rec.AttenDB)
		if len(pending) == 0 {
			samples = make([]tracestore.ProbeSample, 0, min(batchTrials, cfg.Trials-i)*cfg.M)
		}
		lo := len(samples)
		rec.Probes = samples[lo : lo : lo+cfg.M]
		probes := probeArena[lo : lo : lo+cfg.M]
		for _, j := range idx {
			id := txIDs[j]
			snr := campaignTrueSNR(ix.Gain(loc, id), linkSNR, atten, gainRef)
			meas, ok := model.Observe(snr, rng)
			ps := tracestore.ProbeSample{Sector: id, OK: ok}
			if ok {
				ps.SNR = float32(meas.SNR)
				ps.RSSI = float32(meas.RSSI)
			}
			rec.Probes = append(rec.Probes, ps)
			// The selection sees exactly the float32-rounded values the
			// store persists — replay determinism hinges on this.
			probes = append(probes, core.Probe{
				Sector: id,
				Meas:   radio.Measurement{SNR: float64(ps.SNR), RSSI: float64(ps.RSSI)},
				OK:     ps.OK,
			})
		}
		samples = samples[:lo+cfg.M]
		probeArena = probeArena[:lo+cfg.M]
		pending = append(pending, rec)
		probesList = append(probesList, core.BatchItem{Probes: probes})
		if len(pending) == batchTrials {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return w.Close()
}

// campaignAzErrBoundsMilli are the campaign scorecard's azimuth-error
// histogram bounds in milli-degrees (SNR loss uses stats.NewLossHist).
// Fixed bounds + int64 counters keep the aggregate byte-identical at any
// worker count.
var campaignAzErrBoundsMilli = []int64{0, 500, 1000, 2000, 5000, 10000, 20000, 45000, 90000}

// milliDeg converts a non-negative angle error to milli-degrees.
func milliDeg(deg float64) int64 {
	if math.IsNaN(deg) || deg < 0 {
		return 0
	}
	if deg > 360 {
		deg = 360
	}
	return int64(math.Round(deg * 1000))
}

// campaignTally is one shard's int64-only accumulator.
type campaignTally struct {
	trials, failures, fallbacks, drift, probesLost int64
	loss, azErr                                    stats.IntHist

	probesList []core.BatchItem
	probesBuf  []core.Probe
	results    []core.BatchResult
}

func newCampaignTally() campaignTally {
	return campaignTally{
		loss:  stats.NewLossHist(),
		azErr: stats.NewIntHist(campaignAzErrBoundsMilli),
	}
}

func (t *campaignTally) merge(o *campaignTally) {
	t.trials += o.trials
	t.failures += o.failures
	t.fallbacks += o.fallbacks
	t.drift += o.drift
	t.probesLost += o.probesLost
	t.loss.Merge(&o.loss)
	t.azErr.Merge(&o.azErr)
}

// AngleSummary reports an angle-error distribution in milli-degrees.
type AngleSummary struct {
	Count    int64   `json:"count"`
	P50Milli int64   `json:"p50_millideg"`
	P90Milli int64   `json:"p90_millideg"`
	P99Milli int64   `json:"p99_millideg"`
	MaxMilli int64   `json:"max_millideg"`
	MeanDeg  float64 `json:"mean_deg"`
	Buckets  []int64 `json:"buckets"`
}

func angleSummaryOf(h *stats.IntHist) AngleSummary {
	return AngleSummary{
		Count:    h.Count(),
		P50Milli: h.Quantile(0.50),
		P90Milli: h.Quantile(0.90),
		P99Milli: h.Quantile(0.99),
		MaxMilli: h.Max(),
		MeanDeg:  float64(h.Mean()) / 1000,
		Buckets:  h.Counts(),
	}
}

// CampaignSection aggregates one seed range of the campaign.
type CampaignSection struct {
	Trials     int64             `json:"trials"`
	Failures   int64             `json:"select_failures"`
	Fallbacks  int64             `json:"fallbacks"`
	Drift      int64             `json:"selection_drift"`
	ProbesLost int64             `json:"probes_lost"`
	Loss       stats.LossSummary `json:"selection_snr_loss"`
	AzErr      AngleSummary      `json:"azimuth_error"`
}

func sectionOf(t *campaignTally) CampaignSection {
	return CampaignSection{
		Trials:     t.trials,
		Failures:   t.failures,
		Fallbacks:  t.fallbacks,
		Drift:      t.drift,
		ProbesLost: t.probesLost,
		Loss:       stats.SummarizeLoss(&t.loss),
		AzErr:      angleSummaryOf(&t.azErr),
	}
}

// BenchEntry mirrors cmd/benchdiff's baseline schema so the scorecard
// JSON doubles as a benchdiff baseline of virtual metrics.
type BenchEntry struct {
	Name    string  `json:"name"`
	Iters   int64   `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
}

// CampaignScorecard is the replay's deterministic result: for a fixed
// recorded campaign it is byte-identical across runs, machines and
// worker counts. Wall-clock quantities are deliberately excluded.
type CampaignScorecard struct {
	Config      CampaignConfig  `json:"config"`
	Shards      int             `json:"shards"`
	Total       CampaignSection `json:"total"`
	InSample    CampaignSection `json:"in_sample"`
	OutOfSample CampaignSection `json:"out_of_sample"`
	Benchmarks  []BenchEntry    `json:"benchmarks"`
}

// ReplayCampaign streams the recorded shards back through the estimator
// with bounded memory: cfg.Workers readers, one reusable decode buffer
// each, per-shard int64 tallies merged in shard order. The selection is
// recomputed from the stored float32 probes and compared against the
// recorded one — Drift counts disagreements and stays zero when the
// platform matches the recording.
func ReplayCampaign(ctx context.Context, p *Platform, cfg CampaignConfig) (*CampaignScorecard, error) {
	userSplit := cfg.SplitSeed
	cfg.defaults()
	shards, err := tracestore.Discover(cfg.Dir, cfg.Base)
	if err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("eval: no %s-*.bin shards under %s (run -record first)", cfg.Base, cfg.Dir)
	}
	// The scorecard describes the campaign on disk, not the flags: a
	// replay-only invocation reconciles trials, seed range and split
	// boundary with the recorded shard headers, so the scorecard is
	// byte-identical to the recording run's.
	var total uint64
	for _, sh := range shards {
		total += sh.Header.Records
	}
	cfg.Trials = int(total)
	cfg.SeedStart = shards[0].Header.SeedLo
	cfg.RecordsPerShard = int(shards[0].Header.Records)
	if userSplit == 0 {
		target := cfg.SeedStart + total*4/5
		split := cfg.SeedStart
		for _, sh := range shards {
			if sh.Header.SeedLo <= target && sh.Header.SeedLo > split {
				split = sh.Header.SeedLo
			}
		}
		cfg.SplitSeed = split
	}
	inShards, outShards, err := tracestore.SplitBySeed(shards, cfg.SplitSeed)
	if err != nil {
		return nil, err
	}
	codec, err := tracestore.NewTrialCodec(cfg.M)
	if err != nil {
		return nil, err
	}

	ix := p.Patterns.Index()
	gainRef := p.Patterns.MeanPeakGain()
	partials := make([]campaignTally, len(shards))
	for i := range partials {
		partials[i] = newCampaignTally()
	}

	err = tracestore.ReplayShards(ctx, codec, shards, cfg.Workers, func(shard int, recs []tracestore.Trial) error {
		t := &partials[shard]
		// Rebuild the probe vectors into the tally's reusable arena.
		need := 0
		for i := range recs {
			need += len(recs[i].Probes)
		}
		if cap(t.probesBuf) < need {
			t.probesBuf = make([]core.Probe, 0, need)
		}
		buf := t.probesBuf[:0]
		t.probesList = t.probesList[:0]
		for i := range recs {
			start := len(buf)
			for _, ps := range recs[i].Probes {
				if !ps.OK {
					t.probesLost++
				}
				buf = append(buf, core.Probe{
					Sector: ps.Sector,
					Meas:   radio.Measurement{SNR: float64(ps.SNR), RSSI: float64(ps.RSSI)},
					OK:     ps.OK,
				})
			}
			t.probesList = append(t.probesList, core.BatchItem{Probes: buf[start:len(buf):len(buf)]})
		}
		t.probesBuf = buf[:0]

		// Inner workers stay 1: shard fan-out is the only parallelism.
		results, err := p.Estimator.SelectSectorBatchInto(ctx, t.probesList, 1, t.results)
		if err != nil {
			return err
		}
		t.results = results
		for i := range recs {
			rec := &recs[i]
			t.trials++
			recFailed := rec.SelSector == selFailedSector
			sel, serr := results[i].Selection, results[i].Err
			if serr != nil {
				if errors.Is(serr, context.Canceled) || errors.Is(serr, context.DeadlineExceeded) {
					return serr
				}
				t.failures++
				if !recFailed {
					t.drift++
				}
				continue
			}
			if recFailed || sel.Sector != rec.SelSector || sel.Fallback != rec.SelFallback {
				t.drift++
			}
			if sel.Fallback {
				t.fallbacks++
			}
			az := float64(rec.AzDeg)
			loc := ix.Locate(az, float64(rec.ElDeg))
			linkSNR, atten := float64(rec.LinkSNR), float64(rec.AttenDB)
			_, bestGain := ix.BestSector(loc)
			best := campaignTrueSNR(bestGain, linkSNR, atten, gainRef)
			got := campaignTrueSNR(ix.Gain(loc, sel.Sector), linkSNR, atten, gainRef)
			if !math.IsInf(best, -1) && !math.IsInf(got, -1) {
				t.loss.Observe(stats.MilliDB(best - got))
			}
			if sel.AoA.Used > 0 {
				t.azErr.Observe(milliDeg(geom.AzDist(sel.AoA.Az, az)))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge in shard order — the order is what makes the scorecard
	// independent of which worker processed which shard.
	index := make(map[string]int, len(shards))
	for i, sh := range shards {
		index[sh.Path] = i
	}
	mergeSection := func(subset []tracestore.Shard) CampaignSection {
		acc := newCampaignTally()
		for _, sh := range subset {
			acc.merge(&partials[index[sh.Path]])
		}
		return sectionOf(&acc)
	}
	sc := &CampaignScorecard{
		Config:      cfg,
		Shards:      len(shards),
		Total:       mergeSection(shards),
		InSample:    mergeSection(inShards),
		OutOfSample: mergeSection(outShards),
	}
	sc.Benchmarks = []BenchEntry{
		{Name: "BenchmarkCampaign/selection_loss_p50_mdb", Iters: sc.Total.Trials, NsPerOp: float64(sc.Total.Loss.P50Milli)},
		{Name: "BenchmarkCampaign/selection_loss_p99_mdb", Iters: sc.Total.Trials, NsPerOp: float64(sc.Total.Loss.P99Milli)},
		{Name: "BenchmarkCampaign/oos_loss_p50_mdb", Iters: sc.OutOfSample.Trials, NsPerOp: float64(sc.OutOfSample.Loss.P50Milli)},
		{Name: "BenchmarkCampaign/az_err_p50_mdeg", Iters: sc.Total.AzErr.Count, NsPerOp: float64(sc.Total.AzErr.P50Milli)},
		{Name: "BenchmarkCampaign/selection_drift", Iters: sc.Total.Trials, NsPerOp: float64(sc.Total.Drift)},
		{Name: "BenchmarkCampaign/select_failures", Iters: sc.Total.Trials, NsPerOp: float64(sc.Total.Failures)},
	}
	return sc, nil
}

// RunCampaign records the campaign and immediately replays it — the
// registry entry point. Record-once/replay-many workflows drive
// RecordCampaign and ReplayCampaign separately through evalrunner's
// -record/-replay flags.
func RunCampaign(ctx context.Context, p *Platform, cfg CampaignConfig) (*CampaignScorecard, error) {
	cfg.defaults()
	if _, err := RecordCampaign(ctx, p, cfg); err != nil {
		return nil, err
	}
	return ReplayCampaign(ctx, p, cfg)
}

func formatSection(b *strings.Builder, name string, s CampaignSection) {
	fmt.Fprintf(b, "%s: %d trials, %d failures, %d fallbacks, %d drift, %d probes lost\n",
		name, s.Trials, s.Failures, s.Fallbacks, s.Drift, s.ProbesLost)
	fmt.Fprintf(b, "  SNR loss:  p50 %.2f dB  p90 %.2f dB  p99 %.2f dB  mean %.2f dB (%d samples)\n",
		float64(s.Loss.P50Milli)/1000, float64(s.Loss.P90Milli)/1000, float64(s.Loss.P99Milli)/1000,
		s.Loss.MeanDB, s.Loss.Count)
	fmt.Fprintf(b, "  az error:  p50 %.2f°  p90 %.2f°  p99 %.2f°  mean %.2f° (%d samples)\n",
		float64(s.AzErr.P50Milli)/1000, float64(s.AzErr.P90Milli)/1000, float64(s.AzErr.P99Milli)/1000,
		s.AzErr.MeanDeg, s.AzErr.Count)
}

// Table renders the scorecard sections.
func (sc *CampaignScorecard) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign scorecard: %d trials (M=%d) over %d shards, split at seed %d\n",
		sc.Config.Trials, sc.Config.M, sc.Shards, sc.Config.SplitSeed)
	formatSection(&b, "total", sc.Total)
	formatSection(&b, "in-sample", sc.InSample)
	formatSection(&b, "out-of-sample", sc.OutOfSample)
	return b.String()
}

// Summary reports the replay-fidelity headline.
func (sc *CampaignScorecard) Summary() string {
	return fmt.Sprintf("%d trials replayed over %d shards: drift %d, OOS p50 loss %.2f dB, %d failures",
		sc.Total.Trials, sc.Shards, sc.Total.Drift, float64(sc.OutOfSample.Loss.P50Milli)/1000, sc.Total.Failures)
}

// MarshalJSON emits the scorecard; the struct is fully json-tagged and
// int64-backed, so the bytes are identical for identical campaigns.
func (sc *CampaignScorecard) MarshalJSON() ([]byte, error) {
	type alias CampaignScorecard
	return json.Marshal((*alias)(sc))
}
