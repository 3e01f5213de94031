package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"talon/internal/channel"
	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/mcs"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/testbed"
)

// Figure10Result is the training-time model: mutual training duration as
// a function of the number of probing sectors.
type Figure10Result struct {
	// Ms are the evaluated probe counts, Times the matching durations.
	Ms    []int
	Times []time.Duration
	// SSWTime is the stock full-sweep duration (M = 34).
	SSWTime time.Duration
	// CSSAt14 is the compressive duration at the paper's operating
	// point.
	CSSAt14 time.Duration
}

// Figure10 evaluates the training-time series of the paper's Figure 10.
// The model is closed-form, so ctx is only checked once — the parameter
// exists so the study runs under the same cancellable contract as every
// other experiment.
func Figure10(ctx context.Context) (*Figure10Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &Figure10Result{
		SSWTime: dot11ad.MutualTrainingTime(34),
		CSSAt14: dot11ad.MutualTrainingTime(14),
	}
	for m := 12; m <= 38; m += 2 {
		r.Ms = append(r.Ms, m)
		r.Times = append(r.Times, dot11ad.MutualTrainingTime(m))
	}
	return r, nil
}

// Speedup returns the headline training speed-up at 14 probes.
func (r *Figure10Result) Speedup() float64 {
	return float64(r.SSWTime) / float64(r.CSSAt14)
}

// Table renders the series.
func (r *Figure10Result) Table() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 10: mutual training time vs number of probing sectors")
	fmt.Fprintf(&b, "%4s %12s\n", "M", "time")
	for i, m := range r.Ms {
		marker := ""
		switch m {
		case 14:
			marker = "  <- CSS operating point"
		case 34:
			marker = "  <- full sector sweep"
		}
		fmt.Fprintf(&b, "%4d %12s%s\n", m, fmtMS(r.Times[i]), marker)
	}
	fmt.Fprintf(&b, "speed-up at M=14: %.2fx (%s -> %s)\n", r.Speedup(), fmtMS(r.SSWTime), fmtMS(r.CSSAt14))
	return b.String()
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond))
}

// ThroughputPoint is one bar of Figure 11.
type ThroughputPoint struct {
	AzimuthDeg float64
	CSSMbps    float64
	SSWMbps    float64
}

// Figure11Result is the expected application-layer throughput at the
// three evaluated path directions.
type Figure11Result struct {
	Points []ThroughputPoint
	// M is the CSS probing count (14 in the paper).
	M int
}

// Figure11 reproduces the throughput experiment: in the conference room,
// with the rotation head at −45°, 0° and +45°, both algorithms select
// sectors over repeated sweeps; the expected throughput averages the
// SNR→rate mapping over the selections, accounting for each algorithm's
// training airtime.
func Figure11(ctx context.Context, p *Platform, m int, sweeps int, rng *stats.RNG) (*Figure11Result, error) {
	if m <= 0 {
		m = 14
	}
	if sweeps <= 0 {
		sweeps = 10
	}
	cfg := testbed.ScanConfig{AzMin: -45, AzMax: 45, AzStep: 45, Elevations: []float64{0}, SweepsPerPosition: sweeps}
	traces, err := p.Scan(ctx, channel.ConferenceRoom(), 6, cfg)
	if err != nil {
		return nil, err
	}
	model := mcs.DefaultThroughputModel()
	available := sector.TalonTX()
	res := &Figure11Result{M: m}
	for _, tr := range traces {
		pt := ThroughputPoint{AzimuthDeg: tr.CommandedAz}
		var cssTp, sswTp []float64
		for _, sweep := range tr.Sweeps {
			// CSS with m probes.
			probeSet, err := core.RandomProbes(rng, available, m)
			if err != nil {
				return nil, err
			}
			probes := core.ProbesFromMeasurements(probeSet.IDs(), sweep)
			if sel, err := p.Estimator.SelectSector(ctx, probes); err == nil {
				snr := tr.TrueSNR[sel.Sector]
				cssTp = append(cssTp, model.AppThroughputMbps(snr, dot11ad.MutualTrainingTime(m)))
			} else {
				cssTp = append(cssTp, 0)
			}
			// Stock sweep over all sectors.
			if id, ok := core.SweepSelect(core.ProbesFromMeasurements(available, sweep)); ok {
				snr := tr.TrueSNR[id]
				sswTp = append(sswTp, model.AppThroughputMbps(snr, dot11ad.MutualTrainingTime(len(available))))
			} else {
				sswTp = append(sswTp, 0)
			}
		}
		pt.CSSMbps = stats.Mean(cssTp)
		pt.SSWMbps = stats.Mean(sswTp)
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Table renders the three bars of Figure 11.
func (r *Figure11Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: expected TCP throughput, CSS (M=%d) vs SSW, conference room\n", r.M)
	fmt.Fprintf(&b, "%10s %12s %12s\n", "direction", "CSS [Gbps]", "SSW [Gbps]")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%9.0f° %12.3f %12.3f\n", pt.AzimuthDeg, pt.CSSMbps/1000, pt.SSWMbps/1000)
	}
	return b.String()
}
