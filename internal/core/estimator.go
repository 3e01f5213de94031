// Package core implements the paper's contribution: compressive sector
// selection (CSS) for off-the-shelf IEEE 802.11ad devices.
//
// Instead of sweeping all N sectors, CSS probes a subset of M sectors,
// correlates the vector of received signal strengths against the measured
// 3D sector patterns to estimate the angle of arrival (Eq. 2–3),
// multiplies the SNR and RSSI correlations for robustness against the
// firmware's decorrelated measurement outliers (Eq. 5), and finally picks
// the sector with the strongest measured gain toward the estimated angle
// out of all N sectors (Eq. 4).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
)

// Sentinel errors of the estimation pipeline. Callers match them with
// errors.Is; the root talon package re-exports them.
var (
	// ErrTooFewProbes reports a probe vector with fewer than two usable
	// measurements — below that no correlation is defined.
	ErrTooFewProbes = errors.New("too few probes")
	// ErrDegenerateSurface reports a correlation surface with no positive
	// maximum: the measurements carry no directional information.
	ErrDegenerateSurface = errors.New("correlation surface is degenerate")
	// ErrPatternHole reports a pattern set that leaves some grid point
	// without a finite amplitude for some sector. Fill the gaps first
	// (Pattern.FillGaps).
	ErrPatternHole = errors.New("pattern set has a hole")
)

// The estimate pipeline's per-item errors, built once so that an item
// failing in a batch allocates nothing. The reported-probe count only
// reaches the message at 0 or 1, so two values cover it.
var (
	errNoneReported  = fmt.Errorf("core: %w: need at least 2 reported probes, have 0", ErrTooFewProbes)
	errOneReported   = fmt.Errorf("core: %w: need at least 2 reported probes, have 1", ErrTooFewProbes)
	errDegenerate    = fmt.Errorf("core: %w", ErrDegenerateSurface)
	errNoMeasurement = fmt.Errorf("core: %w: no probe reported a measurement", ErrTooFewProbes)
	errNoUsableTX    = errors.New("core: pattern set has no usable TX sector")
)

// tooFewReported returns the error of a probe vector with reported < 2
// usable measurements.
func tooFewReported(reported int) error {
	if reported == 0 {
		return errNoneReported
	}
	return errOneReported
}

// Probe is the outcome of probing one sector: the firmware's measurement,
// or a miss (OK == false) when no report was produced.
type Probe struct {
	Sector sector.ID
	Meas   radio.Measurement
	OK     bool
}

// ProbesFromMeasurements assembles the probe vector for the sectors in
// probed, marking sectors absent from meas as missing.
func ProbesFromMeasurements(probed []sector.ID, meas map[sector.ID]radio.Measurement) []Probe {
	out := make([]Probe, len(probed))
	for i, id := range probed {
		m, ok := meas[id]
		out[i] = Probe{Sector: id, Meas: m, OK: ok}
	}
	return out
}

// Options tunes the estimator.
type Options struct {
	// SNROnly disables the Eq. 5 joint SNR·RSSI correlation and falls
	// back to the plain Eq. 2/3 correlation on SNR alone (the ablation
	// of Section 5).
	SNROnly bool
	// ExactSearch disables the hierarchical coarse-to-fine search and
	// forces the exhaustive scan of every dense grid point on the
	// quantized kernel, so no top-K pruning can miss the argmax. It does
	// not make estimates bit-identical to the float64 serial reference
	// (EstimateAoASerial): int16 rounding can still move the argmax cell
	// on near-tied surfaces (see DESIGN.md §15 for the divergence
	// budgets). The default hierarchical search matches the exhaustive
	// scan on all but adversarial surfaces at a fraction of the cost; see
	// hier.go and DESIGN.md §12 for the trade-off.
	ExactSearch bool
}

// fallbackCorr is the reliability threshold on the correlation maximum:
// when the best correlation falls below it, the angle estimate is
// considered unreliable and SelectSector falls back to the classic
// argmax over the probed sectors (a sub-sweep selection). Joint Eq. 5
// correlations of consistent sweeps sit well above it; only degenerate
// maxima (very few informative probes, heavy outliers) fall below, so
// the fallback acts as a disaster guard rather than a second selector.
const fallbackCorr = 0.25

// Estimator runs compressive angle-of-arrival estimation against a set of
// measured sector patterns. It is safe for concurrent use.
type Estimator struct {
	patterns *pattern.Set
	opts     Options
	// en is the precomputed correlation engine (see engine.go), built
	// once at construction from a snapshot of the pattern set.
	en *engine
}

// NewEstimator builds an estimator over the measured patterns and
// precomputes its correlation dictionary. The set must contain at least
// two transmit sectors, must give every sector a finite gain at every
// grid point (else ErrPatternHole) and must not be mutated afterwards.
func NewEstimator(patterns *pattern.Set, opts Options) (*Estimator, error) {
	if patterns == nil || len(patterns.TXIDs()) < 2 {
		return nil, errors.New("core: estimator needs a pattern set with at least 2 TX sectors")
	}
	en, err := newEngine(patterns, opts.ExactSearch)
	if err != nil {
		return nil, err
	}
	return &Estimator{patterns: patterns, opts: opts, en: en}, nil
}

// Patterns returns the pattern set the estimator searches.
func (e *Estimator) Patterns() *pattern.Set { return e.patterns }

// AoAEstimate is the result of the angle-of-arrival search.
type AoAEstimate struct {
	// Az and El are the estimated arrival angles in degrees.
	Az, El float64
	// Corr is the correlation value at the maximum (product of the SNR
	// and RSSI correlations unless SNROnly).
	Corr float64
	// Used is the number of probes that carried a measurement.
	Used int
	// Cell is the dense grid cell of the argmax, usable as the hint of
	// a later estimate (see BatchItem.Hint). Cell
	// is diagnostic state, not part of the wire format: it is excluded
	// from JSON serialization.
	Cell Cell
}

// amp converts a dB reading to linear amplitude (10^(dB/20)). The
// correlation works on amplitudes rather than powers: a reading that is
// off by k dB then perturbs its vector component by 10^(k/20) instead of
// 10^(k/10), which keeps the occasional severe firmware outlier from
// dominating the normalized inner product.
func amp(db float64) float64 { return math.Pow(10, db/20) }

// gatherVectors converts probes into linear-amplitude measurement
// vectors. Probed-but-unreported sectors are imputed slightly below the
// faintest reported reading: no report means the sector was (almost
// always) below decode sensitivity, so keeping it in the vector at floor
// level anti-correlates directions where that sector should have been
// strong, suppressing aliased estimates.
func (e *Estimator) gatherVectors(probes []Probe) (ids []sector.ID, snrLin, rssiLin []float64, reported int) {
	minSNR, minRSSI := math.Inf(1), math.Inf(1)
	for _, p := range probes {
		if !p.OK {
			continue
		}
		reported++
		if p.Meas.SNR < minSNR {
			minSNR = p.Meas.SNR
		}
		if p.Meas.RSSI < minRSSI {
			minRSSI = p.Meas.RSSI
		}
	}
	impute := reported > 0
	for _, p := range probes {
		switch {
		case p.OK:
			ids = append(ids, p.Sector)
			snrLin = append(snrLin, amp(p.Meas.SNR))
			rssiLin = append(rssiLin, amp(p.Meas.RSSI))
		case impute:
			ids = append(ids, p.Sector)
			snrLin = append(snrLin, amp(minSNR-1))
			rssiLin = append(rssiLin, amp(minRSSI-1))
		}
	}
	return ids, snrLin, rssiLin, reported
}

// correlate implements Eq. 2: the squared normalized correlation of the
// measurement vector with the expected pattern gains at (az, el),
// computed in its centered (Pearson) form. Centering matters on real
// hardware: directions where every probed sector has a similar expected
// gain ("flat" pattern regions behind lobes or at high elevation) would
// otherwise correlate spuriously well with any near-uniform measurement
// vector and attract the argmax. Sectors absent from the set are
// skipped; fewer than three usable components yield 0.
func (e *Estimator) correlate(ids []sector.ID, lin []float64, az, el float64) float64 {
	var xs, ps [64]float64
	used := 0
	var sumP, sumX float64
	for i, id := range ids {
		p := e.patterns.Get(id)
		if p == nil {
			continue
		}
		x := amp(p.At(az, el))
		if used >= len(xs) {
			break
		}
		ps[used], xs[used] = lin[i], x
		sumP += lin[i]
		sumX += x
		used++
	}
	if used < 3 {
		return 0
	}
	meanP, meanX := sumP/float64(used), sumX/float64(used)
	var dot, nm, nx float64
	for i := 0; i < used; i++ {
		dp, dx := ps[i]-meanP, xs[i]-meanX
		dot += dp * dx
		nm += dp * dp
		nx += dx * dx
	}
	if nm == 0 || nx == 0 {
		return 0
	}
	w := dot * dot / (nm * nx)
	if dot < 0 {
		// Anti-correlated shapes are no evidence for this direction.
		return 0
	}
	return w
}

// estimate maximizes the correlation over the pattern grid (Eq. 3),
// refining the maximum between grid points: the batch-major sub-chunk
// (tile.go) run over one item, so SelectSector shares the per-item
// stages of SelectSectorBatch. The search runs on the quantized
// correlation engine: hierarchically (coarse pass, top-K dense
// refinement, exhaustive fallback — see hier.go) unless
// Options.ExactSearch pins it to the exhaustive dense scan. A float
// epilogue re-scores the winning cell on the float64 dictionary, so
// whenever the search picks the serial reference's cell the estimate is
// bit-identical to EstimateAoASerial (see quantEpilogue). ctx is
// observed before each scan, and a cancelled search returns ctx.Err().
func (e *Estimator) estimate(ctx context.Context, probes []Probe) (AoAEstimate, error) {
	start := time.Now() //lint:allow determinism -- estimate-latency histogram reads the wall clock by design
	defer metEstimateSeconds.ObserveSince(start)
	bs := e.en.getBatchScratch()
	defer e.en.putBatchScratch(bs)
	items := bs.items[:1]
	batch := [1]BatchItem{{Probes: probes}}
	if _, err := e.quantChunk(ctx, &bs.scan, batch[:], items); err != nil {
		return AoAEstimate{}, err
	}
	return items[0].aoa, items[0].err
}

// EstimateAoASerial is the straight-line reference implementation of the
// grid search: per-point Pattern.At interpolation and amplitude
// conversion in float64, exhaustive scan, no precomputation, no
// concurrency. It is the test oracle of the production kernel: the
// equivalence suites (and anyone auditing the engine) check the
// production estimate against it.
func (e *Estimator) EstimateAoASerial(probes []Probe) (AoAEstimate, error) {
	metEstimatesSerial.Inc()
	ids, snrLin, rssiLin, reported := e.gatherVectors(probes)
	if reported < 2 {
		return AoAEstimate{}, tooFewReported(reported)
	}
	grid := e.patterns.Grid()
	if grid == nil {
		return AoAEstimate{}, errors.New("core: empty pattern set")
	}
	azAxis, elAxis := grid.Az(), grid.El()

	// Correlation surface over the grid.
	w := make([][]float64, len(elAxis))
	bestA, bestE, bestW := 0, 0, -1.0
	for ei, el := range elAxis {
		row := make([]float64, len(azAxis))
		for ai, az := range azAxis {
			v := e.correlate(ids, snrLin, az, el)
			if !e.opts.SNROnly {
				v *= e.correlate(ids, rssiLin, az, el)
			}
			row[ai] = v
			if v > bestW {
				bestA, bestE, bestW = ai, ei, v
			}
		}
		w[ei] = row
	}
	if bestW <= 0 {
		return AoAEstimate{}, errDegenerate
	}

	az := refineAxis(azAxis, bestA, func(i int) float64 { return w[bestE][i] })
	el := refineAxis(elAxis, bestE, func(i int) float64 { return w[i][bestA] })
	return AoAEstimate{Az: az, El: el, Corr: bestW, Used: reported, Cell: cellOf(bestA, bestE)}, nil
}

// refineAxis sharpens the argmax along one axis with a parabolic fit
// through the peak sample and its neighbours.
func refineAxis(axis []float64, i int, at func(int) float64) float64 {
	if i <= 0 || i >= len(axis)-1 {
		return axis[i]
	}
	y0, y1, y2 := at(i-1), at(i), at(i+1)
	den := y0 - 2*y1 + y2
	if den >= 0 { // not a local maximum shape
		return axis[i]
	}
	d := 0.5 * (y0 - y2) / den
	if d < -0.5 {
		d = -0.5
	}
	if d > 0.5 {
		d = 0.5
	}
	// Assume locally uniform spacing.
	step := (axis[i+1] - axis[i-1]) / 2
	return axis[i] + d*step
}

// Selection is the outcome of compressive sector selection.
type Selection struct {
	// Sector is the chosen transmit sector (Eq. 4).
	Sector sector.ID
	// Gain is the chosen sector's measured-pattern gain toward the
	// estimated angle, in dB (NaN for fallback selections).
	Gain float64
	// AoA is the underlying angle estimate (zero for fallback
	// selections made without a usable estimate).
	AoA AoAEstimate
	// Fallback marks selections that did not trust the angle estimate
	// and used the probed-sector argmax instead.
	Fallback bool
	// Degraded marks selections produced by the resilient training path
	// after the compressive rounds were exhausted: the trainer gave up
	// on CSS and ran the standard full sector sweep (the paper's
	// baseline) instead.
	Degraded bool
	// FallbackReason classifies why a degraded selection abandoned CSS;
	// FallbackNone for selections that did not degrade.
	FallbackReason FallbackReason
}

// FallbackReason classifies why a resilient training run degraded to the
// full-sweep baseline.
type FallbackReason string

// The failure classes the resilient trainer distinguishes.
const (
	// FallbackNone marks a selection that did not degrade.
	FallbackNone FallbackReason = ""
	// FallbackTooFewProbes: every retry lost too many probes to the
	// channel for a usable measurement vector.
	FallbackTooFewProbes FallbackReason = "too-few-probes"
	// FallbackDegenerateSurface: the correlation surface carried no
	// directional information on every retry.
	FallbackDegenerateSurface FallbackReason = "degenerate-surface"
	// FallbackSNRCheck: the post-selection verification probe stayed
	// below the required SNR on every retry.
	FallbackSNRCheck FallbackReason = "snr-check"
	// FallbackTransientFault: an injected transient fault (e.g. a WMI
	// mailbox timeout) persisted across every retry.
	FallbackTransientFault FallbackReason = "transient-fault"
)

// SelectSector runs the full CSS pipeline: estimate the angle of arrival
// from the probes and choose the best of all N sectors toward it (Eq. 4).
// When the correlation maximum is too weak to be trusted — or no estimate
// is possible at all — the selection falls back to the classic argmax
// over the probed sectors. A cancelled context propagates ctx.Err()
// instead of degrading to the sweep fallback.
func (e *Estimator) SelectSector(ctx context.Context, probes []Probe) (Selection, error) {
	metSelectEngine.Inc()
	aoa, err := e.estimate(ctx, probes)
	if err != nil && isCtxErr(err) {
		return Selection{}, err
	}
	return e.finishSelection(probes, aoa, err)
}

// SelectSectorSerial runs the pipeline on the serial reference estimator;
// the equivalence suites check SelectSector against it.
func (e *Estimator) SelectSectorSerial(probes []Probe) (Selection, error) {
	metSelectSerial.Inc()
	aoa, err := e.EstimateAoASerial(probes)
	return e.finishSelection(probes, aoa, err)
}

func (e *Estimator) finishSelection(probes []Probe, aoa AoAEstimate, err error) (Selection, error) {
	// Negated, the test also falls back on a NaN correlation (NaN reading).
	if err != nil || !(aoa.Corr >= fallbackCorr) {
		id, ok := SweepSelect(probes)
		if !ok {
			if err != nil {
				return Selection{}, err
			}
			return Selection{}, errNoMeasurement
		}
		metSelectFallback.Inc()
		return Selection{Sector: id, Gain: math.NaN(), AoA: aoa, Fallback: true}, nil
	}
	id, gain := e.patterns.BestSector(aoa.Az, aoa.El)
	if math.IsNaN(gain) {
		return Selection{}, errNoUsableTX
	}
	return Selection{Sector: id, Gain: gain, AoA: aoa}, nil
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
