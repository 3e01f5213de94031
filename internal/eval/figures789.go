package eval

import (
	"context"
	"fmt"
	"strings"

	"talon/internal/channel"
	"talon/internal/stats"
)

// Figure7Result holds the angular estimation errors per environment and
// probing count — the box plots of Figure 7a/7b.
type Figure7Result struct {
	Lab        *TraceEval
	Conference *TraceEval
}

// Figure8Result is the selection stability over the conference-room
// traces (Figure 8).
type Figure8Result struct {
	Conference *TraceEval
}

// Figure9Result is the SNR loss over the conference-room traces
// (Figure 9).
type Figure9Result struct {
	Conference *TraceEval
}

// EnvironmentStudy runs the Section 6 measurement campaign once and
// derives Figures 7, 8 and 9 from it: patterns from the chamber, scans in
// the lab (3 m) and the conference room (6 m), then CSS/SSW evaluation
// over the recorded traces.
type EnvironmentStudy struct {
	Platform   *Platform
	Lab        *TraceEval
	Conference *TraceEval
}

// EnvironmentStudyOn runs the scans and trace evaluations on an
// existing platform, so a suite of studies sharing one rig (see
// Config.Env) measures the chamber patterns only once.
func EnvironmentStudyOn(ctx context.Context, p *Platform, seed int64, f Fidelity) (*EnvironmentStudy, error) {
	labTraces, err := p.Scan(ctx, channel.Lab(), 3, f.Lab)
	if err != nil {
		return nil, fmt.Errorf("eval: lab scan: %w", err)
	}
	confTraces, err := p.Scan(ctx, channel.ConferenceRoom(), 6, f.Conference)
	if err != nil {
		return nil, fmt.Errorf("eval: conference scan: %w", err)
	}
	rng := stats.NewRNG(seed).Split("trace-eval")
	lab, err := EvaluateTraces(ctx, "lab", labTraces, p.Estimator, f.Ms, f.SubsetsPerSweep, rng)
	if err != nil {
		return nil, err
	}
	conf, err := EvaluateTraces(ctx, "conference-room", confTraces, p.Estimator, f.Ms, f.SubsetsPerSweep, rng)
	if err != nil {
		return nil, err
	}
	return &EnvironmentStudy{Platform: p, Lab: lab, Conference: conf}, nil
}

// Figure7 extracts the estimation-error figure from the study.
func (s *EnvironmentStudy) Figure7() *Figure7Result {
	return &Figure7Result{Lab: s.Lab, Conference: s.Conference}
}

// Figure8 extracts the stability figure.
func (s *EnvironmentStudy) Figure8() *Figure8Result {
	return &Figure8Result{Conference: s.Conference}
}

// Figure9 extracts the SNR-loss figure.
func (s *EnvironmentStudy) Figure9() *Figure9Result {
	return &Figure9Result{Conference: s.Conference}
}

func formatErrTable(b *strings.Builder, te *TraceEval) {
	fmt.Fprintf(b, "%s (%d positions):\n", te.Env, te.NumTraces)
	fmt.Fprintf(b, "%4s | %26s | %26s\n", "M", "azimuth error [°]", "elevation error [°]")
	fmt.Fprintf(b, "%4s | %8s %8s %8s | %8s %8s %8s\n", "", "median", "p75", "p99.5", "median", "p75", "p99.5")
	for _, m := range te.PerM {
		az := stats.Box(m.AzErrs)
		el := stats.Box(m.ElErrs)
		fmt.Fprintf(b, "%4d | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n",
			m.M, az.Median, az.BoxHi, az.WhiskHi, el.Median, el.BoxHi, el.WhiskHi)
	}
}

// Table renders the Figure 7 box-plot series.
func (r *Figure7Result) Table() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 7: angular estimation error vs number of probing sectors")
	formatErrTable(&b, r.Lab)
	fmt.Fprintln(&b)
	formatErrTable(&b, r.Conference)
	return b.String()
}

// Table renders the Figure 8 stability series.
func (r *Figure8Result) Table() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 8: selection stability (conference room)")
	fmt.Fprintf(&b, "%4s %12s %12s\n", "M", "CSS", "SSW")
	for _, m := range r.Conference.PerM {
		fmt.Fprintf(&b, "%4d %11.1f%% %11.1f%%\n", m.M, 100*m.Stability, 100*r.Conference.SSW.Stability)
	}
	return b.String()
}

// CrossoverM returns the smallest evaluated M whose CSS stability reaches
// the SSW baseline (the paper: M = 13).
func (r *Figure8Result) CrossoverM() (int, bool) {
	for _, m := range r.Conference.PerM {
		if m.Stability >= r.Conference.SSW.Stability {
			return m.M, true
		}
	}
	return 0, false
}

// Table renders the Figure 9 SNR-loss series.
func (r *Figure9Result) Table() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 9: average SNR loss vs number of probing sectors (conference room)")
	fmt.Fprintf(&b, "%4s %14s %14s\n", "M", "CSS [dB]", "SSW [dB]")
	ssw := stats.Mean(r.Conference.SSW.SNRLoss)
	for _, m := range r.Conference.PerM {
		fmt.Fprintf(&b, "%4d %14.2f %14.2f\n", m.M, stats.Mean(m.SNRLoss), ssw)
	}
	return b.String()
}

// CrossoverM returns the smallest evaluated M whose mean CSS SNR loss is
// at or below the SSW baseline (the paper: M = 14).
func (r *Figure9Result) CrossoverM() (int, bool) {
	ssw := stats.Mean(r.Conference.SSW.SNRLoss)
	for _, m := range r.Conference.PerM {
		if stats.Mean(m.SNRLoss) <= ssw {
			return m.M, true
		}
	}
	return 0, false
}
