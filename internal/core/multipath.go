package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"talon/internal/geom"
	"talon/internal/sector"
)

// EstimateMultipath extends the angle estimation to multiple propagation
// paths (the compressive multi-path estimation of Marzi et al. that the
// paper cites as related work): it extracts up to k ranked local maxima
// of the correlation surface, suppressing everything within minSepDeg of
// an already-accepted peak, and drops peaks below relThresh times the
// main peak's correlation. ctx is observed between grid rows of every
// cancellation round.
func (e *Estimator) EstimateMultipath(ctx context.Context, probes []Probe, k int, minSepDeg, relThresh float64) ([]AoAEstimate, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: multipath peak count %d must be positive", k)
	}
	if minSepDeg <= 0 {
		minSepDeg = 15
	}
	if relThresh <= 0 || relThresh >= 1 {
		relThresh = 0.35
	}
	ids, snrLin, rssiLin, reported := e.gatherVectors(probes)
	if reported < 2 {
		return nil, fmt.Errorf("core: %w: need at least 2 reported probes, have %d", ErrTooFewProbes, reported)
	}
	// The engine dictionary replaces per-point Pattern.At lookups inside
	// the cancellation rounds; the vectors it correlates change per round,
	// the dictionary does not.
	en := e.en
	azAxis, elAxis := en.az, en.el
	cols := make([]int16, len(ids))
	for i, id := range ids {
		cols[i] = en.cols[id]
	}

	// Successive interference cancellation: after each detected path the
	// path's power contribution is subtracted from the measurement
	// vectors, exposing weaker paths that the dominant one masks in the
	// raw correlation surface.
	snr := append([]float64(nil), snrLin...)
	rssi := append([]float64(nil), rssiLin...)
	var peaks []AoAEstimate
	suppressed := make([][]bool, len(elAxis))
	for i := range suppressed {
		suppressed[i] = make([]bool, len(azAxis))
	}
	mainCorr := 0.0
	for len(peaks) < k {
		bestA, bestE, bestW := -1, -1, 0.0
		w := make([][]float64, len(elAxis))
		for ei := range elAxis {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			row := make([]float64, len(azAxis))
			for ai := range azAxis {
				if suppressed[ei][ai] {
					continue
				}
				v := en.jointAt((ei*len(azAxis)+ai)*en.stride, cols, snr, rssi, e.opts.SNROnly)
				row[ai] = v
				if v > bestW {
					bestA, bestE, bestW = ai, ei, v
				}
			}
			w[ei] = row
		}
		if bestA < 0 || bestW <= 0 {
			break
		}
		if len(peaks) == 0 {
			mainCorr = bestW
		} else if bestW < relThresh*mainCorr {
			break
		}
		az := refineAxis(azAxis, bestA, func(i int) float64 { return w[bestE][i] })
		el := refineAxis(elAxis, bestE, func(i int) float64 { return w[i][bestA] })
		peaks = append(peaks, AoAEstimate{Az: az, El: el, Corr: bestW, Used: reported})
		// Cancel the detected path from both measurement vectors and
		// suppress its angular neighbourhood against re-detection.
		cancelPath(e, ids, snr, az, el)
		cancelPath(e, ids, rssi, az, el)
		for ei, elv := range elAxis {
			for ai, azv := range azAxis {
				if geom.SphereDist(azAxis[bestA], elAxis[bestE], azv, elv) < minSepDeg {
					suppressed[ei][ai] = true
				}
			}
		}
	}
	if len(peaks) == 0 {
		return nil, fmt.Errorf("core: %w", ErrDegenerateSurface)
	}
	return peaks, nil
}

// cancelPath subtracts, in the power domain, the least-squares-scaled
// pattern contribution of a path at (az, el) from the amplitude vector.
// Components never drop below a small floor so later correlations stay
// well defined.
func cancelPath(e *Estimator, ids []sector.ID, ampVec []float64, az, el float64) {
	var dot, nx float64
	xPow := make([]float64, len(ids))
	valid := make([]bool, len(ids))
	maxPow := 0.0
	for i, id := range ids {
		p := e.patterns.Get(id)
		if p == nil {
			continue
		}
		g := p.At(az, el)
		if math.IsNaN(g) {
			continue
		}
		x := math.Pow(10, g/10)
		pw := ampVec[i] * ampVec[i]
		xPow[i] = x
		valid[i] = true
		dot += pw * x
		nx += x * x
		if pw > maxPow {
			maxPow = pw
		}
	}
	if nx == 0 || maxPow == 0 {
		return
	}
	beta := dot / nx
	floor := 1e-6 * maxPow
	for i := range ids {
		if !valid[i] {
			continue
		}
		residual := ampVec[i]*ampVec[i] - beta*xPow[i]
		if residual < floor {
			residual = floor
		}
		ampVec[i] = math.Sqrt(residual)
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

// SelectWithBackup runs compressive selection and, when the correlation
// surface exposes a distinct secondary path, also returns the best sector
// toward it (guaranteed different from the primary sector). A cancelled
// context propagates ctx.Err() instead of degrading to the single-sector
// fallback.
func (e *Estimator) SelectWithBackup(ctx context.Context, probes []Probe, minSepDeg float64) (BackupSelection, error) {
	peaks, err := e.EstimateMultipath(ctx, probes, 3, minSepDeg, 0.1)
	if err != nil {
		if isCtxErr(err) {
			return BackupSelection{}, err
		}
		// Degenerate surface: fall back like SelectSector does.
		sel, serr := e.SelectSector(ctx, probes)
		if serr != nil {
			return BackupSelection{}, serr
		}
		return BackupSelection{Primary: sel}, nil
	}
	primaryID, primaryGain := e.patterns.BestSector(peaks[0].Az, peaks[0].El)
	if math.IsNaN(primaryGain) {
		return BackupSelection{}, errors.New("core: pattern set has no usable TX sector")
	}
	out := BackupSelection{Primary: Selection{Sector: primaryID, Gain: primaryGain, AoA: peaks[0]}}
	for _, peak := range peaks[1:] {
		id, gain := e.patterns.BestSector(peak.Az, peak.El)
		if math.IsNaN(gain) || id == primaryID {
			continue
		}
		out.Backup = Selection{Sector: id, Gain: gain, AoA: peak}
		out.HasBackup = true
		break
	}
	return out, nil
}
