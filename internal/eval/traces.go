package eval

import (
	"context"
	"errors"
	"fmt"
	"math"

	"talon/internal/core"
	"talon/internal/geom"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/testbed"
)

// MStats aggregates compressive-selection quality at one probing count M.
type MStats struct {
	M int
	// AzErrs / ElErrs are absolute estimation errors in degrees, one per
	// evaluated (sweep × subset).
	AzErrs, ElErrs []float64
	// SNRLoss is trueSNR(optimal) − trueSNR(selected) in dB.
	SNRLoss []float64
	// Stability is the average per-direction fraction of selections
	// falling on the direction's most frequent sector.
	Stability float64
	// Failures counts evaluations where estimation was impossible
	// (fewer than two probes reported).
	Failures int
	// Fallbacks counts selections that distrusted the angle estimate
	// and used the probed-sector argmax instead.
	Fallbacks int
}

// SSWStats aggregates the stock sector-sweep baseline over the same
// traces.
type SSWStats struct {
	SNRLoss   []float64
	Stability float64
	Failures  int
}

// TraceEval is the full per-environment evaluation used by Figures 7–9.
type TraceEval struct {
	Env       string
	PerM      []*MStats
	SSW       SSWStats
	NumTraces int
}

// EvaluateTraces runs CSS at every M in ms and the SSW baseline over the
// captured traces. subsets random probing subsets are drawn per sweep and
// M. The estimator must be built from the same device's measured
// patterns.
//
// Trials are independent, so the CSS selections run on a bounded worker
// pool (see SetParallelism). Results are identical to a serial run at any
// worker count: every probing subset is drawn from rng up front in the
// canonical (M, trace, sweep, subset) order, and aggregation replays that
// order after the parallel phase. The context is observed between trials.
func EvaluateTraces(ctx context.Context, envName string, traces []testbed.Trace, est *core.Estimator, ms []int, subsets int, rng *stats.RNG) (*TraceEval, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("eval: no traces for %s", envName)
	}
	if subsets < 1 {
		subsets = 1
	}
	te := &TraceEval{Env: envName, NumTraces: len(traces)}
	available := sector.TalonTX()

	// --- SSW baseline ---
	for _, tr := range traces {
		var picks []sector.ID
		for _, sweep := range tr.Sweeps {
			probes := core.MeasurementsToProbes(available, sweep)
			id, ok := core.SweepSelect(probes)
			if !ok {
				te.SSW.Failures++
				continue
			}
			picks = append(picks, id)
			if loss, ok := snrLoss(tr, id); ok {
				te.SSW.SNRLoss = append(te.SSW.SNRLoss, loss)
			}
		}
		te.SSW.Stability += stabilityOf(picks)
	}
	te.SSW.Stability /= float64(len(traces))

	// --- CSS at each M ---
	// Phase 1: draw every probing subset serially, preserving the RNG
	// stream order a serial evaluation would consume.
	type cssJob struct {
		mIdx, trIdx int
		probes      []core.Probe
	}
	var jobs []cssJob
	for mIdx, m := range ms {
		for trIdx, tr := range traces {
			for _, sweep := range tr.Sweeps {
				for s := 0; s < subsets; s++ {
					probeSet, err := core.RandomProbes(rng, available, m)
					if err != nil {
						return nil, err
					}
					jobs = append(jobs, cssJob{
						mIdx:   mIdx,
						trIdx:  trIdx,
						probes: core.ProbesFromMeasurements(probeSet.IDs(), sweep),
					})
				}
			}
		}
	}

	// Phase 2: run the independent selections through the batched
	// estimation path — one persistent worker pool over the whole
	// campaign's probe vectors instead of per-call fan-out; estimates
	// never fan out internally, so the batch workers are the only
	// parallelism.
	probesList := make([]core.BatchItem, len(jobs))
	for i := range jobs {
		probesList[i].Probes = jobs[i].probes
	}
	results, err := est.SelectSectorBatch(ctx, probesList, Parallelism())
	if err != nil {
		return nil, err
	}
	metTrials.Add(int64(len(jobs)))
	metBatchTrials.Add(int64(len(jobs)))

	// Phase 3: aggregate serially in the canonical order.
	perM := make([]*MStats, len(ms))
	for i, m := range ms {
		perM[i] = &MStats{M: m}
	}
	picksPer := make(map[[2]int][]sector.ID, len(ms)*len(traces))
	for i, job := range jobs {
		st := perM[job.mIdx]
		tr := traces[job.trIdx]
		sel, err := results[i].Selection, results[i].Err
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			st.Failures++
			continue
		}
		// Figure 7 reports the raw estimator accuracy: record every
		// computed estimate, including ones the selection step later
		// distrusts.
		if sel.AoA.Used > 0 {
			st.AzErrs = append(st.AzErrs, math.Abs(geom.WrapAz(sel.AoA.Az-tr.TrueAz)))
			st.ElErrs = append(st.ElErrs, math.Abs(sel.AoA.El-tr.TrueEl))
		}
		if sel.Fallback {
			st.Fallbacks++
		}
		key := [2]int{job.mIdx, job.trIdx}
		picksPer[key] = append(picksPer[key], sel.Sector)
		if loss, ok := snrLoss(tr, sel.Sector); ok {
			st.SNRLoss = append(st.SNRLoss, loss)
		}
	}
	for mIdx := range ms {
		st := perM[mIdx]
		for trIdx := range traces {
			st.Stability += stabilityOf(picksPer[[2]int{mIdx, trIdx}])
		}
		st.Stability /= float64(len(traces))
	}
	te.PerM = perM
	return te, nil
}

// snrLoss computes the SNR-loss metric for one selection. The paper
// compares reported SNRs ("the sector with the highest SNR as reported in
// the current and previous measurements"); the simulator has the noiseless
// oracle, so we use the unbiased version of the same quantity: the true
// SNR of the best sector minus the true SNR of the selected one. This is
// strictly harder on both algorithms than the reported-SNR variant, whose
// max-of-noisy-readings optimum systematically biases against selections
// of sectors that never produced a report.
func snrLoss(tr testbed.Trace, selected sector.ID) (float64, bool) {
	best := math.Inf(-1)
	for _, snr := range tr.TrueSNR {
		if snr > best {
			best = snr
		}
	}
	got, ok := tr.TrueSNR[selected]
	if !ok || math.IsInf(best, -1) || math.IsInf(got, -1) {
		return 0, false
	}
	loss := best - got
	if loss < 0 {
		loss = 0
	}
	return loss, true
}

// stabilityOf returns the fraction of picks equal to the most frequent
// pick — "the time spent in the most prominent sector".
func stabilityOf(picks []sector.ID) float64 {
	if len(picks) == 0 {
		return 0
	}
	counts := map[sector.ID]int{}
	best := 0
	for _, id := range picks {
		counts[id]++
		if counts[id] > best {
			best = counts[id]
		}
	}
	return float64(best) / float64(len(picks))
}
