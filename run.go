package talon

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/fault"
	"talon/internal/obs"
	"talon/internal/sector"
)

// Tracing hooks of the public API, re-exported from internal/obs. A
// Tracer observes the stages of a training run (sweep, estimate, force,
// SLS); the default is a zero-allocation no-op.
type (
	// Tracer receives span begin/end callbacks from instrumented code.
	Tracer = obs.Tracer
	// Span is one live span; End closes it.
	Span = obs.Span
	// TraceLabel is one key/value annotation on a span.
	TraceLabel = obs.Label
	// TraceRecorder is a Tracer that records events for inspection —
	// intended for tests and debugging, not hot paths.
	TraceRecorder = obs.Recorder
)

// Trainer metrics (see README, "Observability").
var (
	metTrainings = obs.NewCounter("trainer_trainings_total",
		"training rounds started (Trainer.Run calls)")
	metRetrains = obs.NewCounter("trainer_retrains_total",
		"training rounds beyond the first on the same Trainer")
	metProbesIssued = obs.NewCounter("trainer_probes_issued_total",
		"compressive probes issued across training rounds")
	metProbeMisses = obs.NewCounter("trainer_probe_misses_total",
		"issued probes whose measurement did not come back")
	metTrainSeconds = obs.NewHistogram("trainer_train_seconds",
		"wall time per training round", obs.LatencyBuckets)
	metRunRetries = obs.NewCounter("trainer_retries_total",
		"CSS attempts beyond the first inside one resilient Run (WithRetry)")
	metRunFallbacks = obs.NewCounter("trainer_fallbacks_total",
		"resilient Runs that degraded to the full SSW sweep baseline")
	metSNRCheckFails = obs.NewCounter("trainer_snr_check_failures_total",
		"post-selection SNR verification probes that failed (WithSNRCheck)")
)

// ErrSNRCheckFailed reports a post-selection verification probe (enabled
// by WithSNRCheck) that came back below the required SNR — or not at
// all. Under WithRetry the trainer retries and then degrades instead of
// returning it; without retry enabled, Run surfaces it directly. Match
// with errors.Is.
var ErrSNRCheckFailed = errors.New("post-selection SNR check failed")

// DefaultRetryBackoff is the initial backoff a resilient Run waits (in
// virtual airtime) before its first retry when WithRetry is given a
// non-positive backoff. It doubles on every further retry.
const DefaultRetryBackoff = time.Millisecond

// RunOption configures one Trainer.Run call.
type RunOption func(*runConfig)

type runConfig struct {
	mutual    bool
	backup    bool
	backupSep float64
	tracer    Tracer

	resilient bool
	retries   int
	backoff   time.Duration
	snrCheck  bool
	minSNR    float64
}

// Mutual extends the run to the full protocol exchange: after the
// compressive selection, both sides sweep the probed subset inside one
// sector-level sweep with the choice injected into the feedback fields
// through the firmware override.
func Mutual() RunOption {
	return func(c *runConfig) { c.mutual = true }
}

// WithBackup additionally extracts a backup sector toward a secondary
// propagation path at least minSepDeg degrees away from the primary
// (DefaultBackupSeparationDeg is the usual choice). The result's Backup
// field is populated; check Backup.HasBackup before using it.
func WithBackup(minSepDeg float64) RunOption {
	return func(c *runConfig) { c.backup, c.backupSep = true, minSepDeg }
}

// WithTracer attaches a Tracer to the run; every stage reports a span.
// The default is a zero-allocation no-op.
func WithTracer(tr Tracer) RunOption {
	return func(c *runConfig) {
		if tr != nil {
			c.tracer = tr
		}
	}
}

// WithRetry makes the run resilient: when a CSS attempt fails with a
// retryable error — too few probes came back, the correlation surface
// was degenerate, an injected transient fault hit, or the WithSNRCheck
// verification rejected the choice — the trainer retries with a fresh
// random probe subset up to n more times, waiting backoff of virtual
// airtime before the first retry and doubling it each further retry.
// When every attempt fails the run degrades gracefully to the standard
// full sector sweep (the paper's baseline) instead of erroring; the
// result's Selection.Degraded and Selection.FallbackReason report that
// the fallback won. A non-positive backoff means DefaultRetryBackoff;
// n <= 0 enables resilience (fallback) without extra CSS attempts.
func WithRetry(n int, backoff time.Duration) RunOption {
	return func(c *runConfig) {
		c.resilient = true
		if n > 0 {
			c.retries = n
		}
		if backoff > 0 {
			c.backoff = backoff
		} else {
			c.backoff = DefaultRetryBackoff
		}
	}
}

// WithSNRCheck verifies each CSS selection before trusting it: the
// trainer probes the chosen sector once more and requires the reported
// SNR to reach minDB. A failed check surfaces as ErrSNRCheckFailed —
// or, under WithRetry, triggers a retry and eventually the full-sweep
// fallback.
func WithSNRCheck(minDB float64) RunOption {
	return func(c *runConfig) { c.snrCheck, c.minSNR = true, minDB }
}

func (c *runConfig) mode() string {
	switch {
	case c.mutual && c.backup:
		return "mutual+backup"
	case c.mutual:
		return "mutual"
	case c.backup:
		return "backup"
	}
	return "train"
}

// RunResult is the outcome of one Trainer.Run: the compressive training
// round plus the optional extras the options enabled.
type RunResult struct {
	// Selection is the CSS outcome for the transmitter's sector.
	Selection Selection
	// Sector is the chosen transmit sector (shorthand for
	// Selection.Sector).
	Sector SectorID
	// Probed lists the sectors that were probed.
	Probed []SectorID
	// SLS carries the protocol-level result when the run included the
	// full sector-level sweep (Mutual).
	SLS *SLSResult
	// Backup holds the multipath backup selection when WithBackup was
	// requested, nil otherwise.
	Backup *BackupSelection
	// Attempts counts the CSS attempts this run made (1 without
	// retries). A degraded run reports the attempts that failed before
	// the full-sweep fallback took over.
	Attempts int
}

// Degraded reports whether the run abandoned CSS and fell back to the
// full sector sweep (shorthand for Selection.Degraded).
func (r *RunResult) Degraded() bool { return r.Selection.Degraded }

// Run performs one compressive training round from tx toward rx: it
// probes a random M-sector subset, estimates the departure angle,
// selects the best transmit sector and (when rx is jailbroken) arms rx's
// feedback override with the choice. Options extend the round — Mutual
// runs the full sweep handshake afterwards, WithBackup extracts a backup
// sector, WithTracer observes the stages, WithRetry adds retries plus
// the full-sweep fallback, WithSNRCheck verifies the choice. The context
// is observed between the stages and inside the correlation grid search;
// a cancelled run returns ctx.Err().
func (t *Trainer) Run(ctx context.Context, tx, rx *Device, opts ...RunOption) (*RunResult, error) {
	cfg := runConfig{tracer: obs.Nop()}
	for _, opt := range opts {
		opt(&cfg)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	metTrainings.Inc()
	if t.runs > 0 {
		metRetrains.Inc()
	}
	t.runs++
	start := time.Now()
	defer metTrainSeconds.ObserveSince(start)

	run := cfg.tracer.StartSpan("trainer.run", obs.L("mode", cfg.mode()))
	defer run.End()

	attempts := 1
	res, err := t.runOnce(ctx, tx, rx, &cfg)
	if err == nil || !cfg.resilient {
		if res != nil {
			res.Attempts = attempts
		}
		return res, err
	}

	backoff := cfg.backoff
	for attempts <= cfg.retries && retryable(err) {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		metRunRetries.Inc()
		attempts++
		retry := cfg.tracer.StartSpan("trainer.retry",
			obs.L("attempt", fmt.Sprintf("%d", attempts)))
		t.link.Wait(backoff)
		backoff *= 2
		res, err = t.runOnce(ctx, tx, rx, &cfg)
		retry.End()
		if err == nil {
			res.Attempts = attempts
			return res, nil
		}
	}
	if !retryable(err) {
		return nil, err
	}
	res, err = t.fallbackSweep(ctx, tx, rx, &cfg, reasonFor(err))
	if res != nil {
		res.Attempts = attempts
	}
	return res, err
}

// runOnce is one CSS attempt: probe a fresh random subset, estimate,
// select, arm the override, optionally verify and run the mutual sweep.
func (t *Trainer) runOnce(ctx context.Context, tx, rx *Device, cfg *runConfig) (*RunResult, error) {
	probeSet, err := core.RandomProbes(t.rng, sector.TalonTX(), t.m)
	if err != nil {
		return nil, err
	}
	probed := probeSet.IDs()

	sweep := cfg.tracer.StartSpan("trainer.sweep")
	meas, err := t.link.RunTXSS(tx, rx, dot11ad.SubSweepSchedule(probeSet))
	sweep.End()
	if err != nil {
		return nil, err
	}
	metProbesIssued.Add(int64(len(probed)))
	for _, id := range probed {
		if _, ok := meas[id]; !ok {
			metProbeMisses.Inc()
		}
	}

	probes := core.ProbesFromMeasurements(probed, meas)
	res := &RunResult{}
	estimate := cfg.tracer.StartSpan("trainer.estimate")
	if cfg.backup {
		backup, err := t.est.SelectWithBackup(ctx, probes, cfg.backupSep)
		estimate.End()
		if err != nil {
			return nil, err
		}
		res.Backup = &backup
		res.Selection = backup.Primary
	} else {
		sel, err := t.est.SelectSector(ctx, probes)
		estimate.End()
		if err != nil {
			return nil, err
		}
		res.Selection = sel
	}
	res.Sector = res.Selection.Sector
	res.Probed = probed

	if rx.Firmware().OverrideEnabled() {
		force := cfg.tracer.StartSpan("trainer.force")
		err := rx.ForceSector(res.Sector)
		force.End()
		if err != nil {
			return nil, err
		}
	}

	if cfg.snrCheck {
		check := cfg.tracer.StartSpan("trainer.snrcheck")
		err := t.verifySNR(tx, rx, res.Sector, cfg.minSNR)
		check.End()
		if err != nil {
			return nil, err
		}
	}

	if cfg.mutual {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		slsSpan := cfg.tracer.StartSpan("trainer.sls")
		slots := dot11ad.SubSweepSchedule(sector.NewSet(probed...))
		sls, err := t.link.RunSLS(tx, rx, slots, slots)
		slsSpan.End()
		if err != nil {
			return nil, err
		}
		res.SLS = sls
	}
	return res, nil
}

// verifySNR probes the selected sector once more and requires the
// reported SNR to reach minDB.
func (t *Trainer) verifySNR(tx, rx *Device, id SectorID, minDB float64) error {
	meas, err := t.link.RunTXSS(tx, rx, dot11ad.SubSweepSchedule(sector.NewSet(id)))
	if err != nil {
		return err
	}
	m, ok := meas[id]
	if !ok {
		metSNRCheckFails.Inc()
		return fmt.Errorf("talon: %w: verification probe on sector %s was lost", ErrSNRCheckFailed, id)
	}
	if m.SNR < minDB {
		metSNRCheckFails.Inc()
		return fmt.Errorf("talon: %w: sector %s verified at %.1f dB, need %.1f dB",
			ErrSNRCheckFailed, id, m.SNR, minDB)
	}
	return nil
}

// fallbackSweep is the graceful-degradation path: a standard full
// sector-level sweep with the stock argmax selection — the paper's
// baseline — reported with Degraded set and the failure class that
// forced it.
func (t *Trainer) fallbackSweep(ctx context.Context, tx, rx *Device, cfg *runConfig, reason core.FallbackReason) (*RunResult, error) {
	metRunFallbacks.Inc()
	span := cfg.tracer.StartSpan("trainer.fallback", obs.L("reason", string(reason)))
	defer span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	slots := dot11ad.SweepSchedule()
	meas, err := t.link.RunTXSS(tx, rx, slots)
	if err != nil {
		return nil, fmt.Errorf("talon: fallback sweep: %w", err)
	}
	probed := sector.TalonTX()
	id, ok := core.SweepSelect(core.ProbesFromMeasurements(probed, meas))
	if !ok {
		return nil, fmt.Errorf("talon: %w: fallback sweep lost every frame", core.ErrTooFewProbes)
	}

	res := &RunResult{}
	res.Selection = core.Selection{
		Sector:         id,
		Gain:           math.NaN(),
		Fallback:       true,
		Degraded:       true,
		FallbackReason: reason,
	}
	res.Sector = id
	res.Probed = probed
	if cfg.backup {
		// The sweep finds no secondary path, but Backup stays non-nil
		// whenever WithBackup was requested.
		res.Backup = &BackupSelection{Primary: res.Selection}
	}

	if rx.Firmware().OverrideEnabled() {
		// Transient WMI faults must not sink an otherwise valid
		// selection: retry the override a few times, then carry on
		// without it — only the feedback of the next handshake is lost.
		for i := 0; ; i++ {
			err := rx.ForceSector(id)
			if err == nil {
				break
			}
			if !errors.Is(err, fault.ErrInjected) {
				return nil, err
			}
			if i >= 2 {
				break
			}
			t.link.Wait(cfg.backoff)
		}
	}

	if cfg.mutual {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sls, err := t.link.RunSLS(tx, rx, slots, slots)
		if err != nil {
			return nil, err
		}
		res.SLS = sls
	}
	return res, nil
}

// retryable classifies the failures the resilient path may recover from
// by re-probing: lossy channels (too few probes), uninformative
// measurements (degenerate surface), injected transient faults and a
// rejected verification probe.
func retryable(err error) bool {
	return errors.Is(err, core.ErrTooFewProbes) ||
		errors.Is(err, core.ErrDegenerateSurface) ||
		errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, ErrSNRCheckFailed)
}

// reasonFor maps a retryable failure to the FallbackReason the degraded
// selection reports.
func reasonFor(err error) core.FallbackReason {
	switch {
	case errors.Is(err, ErrSNRCheckFailed):
		return core.FallbackSNRCheck
	case errors.Is(err, core.ErrTooFewProbes):
		return core.FallbackTooFewProbes
	case errors.Is(err, core.ErrDegenerateSurface):
		return core.FallbackDegenerateSurface
	case errors.Is(err, fault.ErrInjected):
		return core.FallbackTransientFault
	}
	return core.FallbackNone
}
