package testbed

import (
	"context"
	"fmt"

	"talon/internal/dot11ad"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/wil"
)

// Trace records everything captured at one head position of an
// environment scan: the ground-truth departure direction, the repeated
// full-sweep measurements, and the noiseless per-sector SNR oracle used
// for SNR-loss evaluation.
type Trace struct {
	// CommandedAz / CommandedEl are the pattern direction the head was
	// asked to face toward the probe.
	CommandedAz, CommandedEl float64
	// TrueAz / TrueEl are the dominant ray's departure angles in the
	// DUT frame — the physical ground truth for the estimator.
	TrueAz, TrueEl float64
	// Sweeps holds the receiver's measurements of each repeated full
	// sector sweep.
	Sweeps []map[sector.ID]radio.Measurement
	// TrueSNR is the noiseless SNR per transmit sector at this position
	// (the evaluation oracle).
	TrueSNR map[sector.ID]float64
}

// ScanConfig describes one environment experiment of Section 6.1.
type ScanConfig struct {
	// AzMin/AzMax/AzStep set the head's azimuth range and resolution.
	AzMin, AzMax, AzStep float64
	// Elevations lists the tilt values to visit (just {0} in the
	// conference room).
	Elevations []float64
	// SweepsPerPosition is how many full sector sweeps are captured at
	// each position.
	SweepsPerPosition int
}

// LabScan returns the lab parameters: ±60° azimuth at 2.25°, tilts
// 0°–30° in 2° steps.
func LabScan() ScanConfig {
	els := make([]float64, 0, 16)
	for el := 0.0; el <= 30; el += 2 {
		els = append(els, el)
	}
	return ScanConfig{AzMin: -60, AzMax: 60, AzStep: 2.25, Elevations: els, SweepsPerPosition: 3}
}

// ConferenceScan returns the conference-room parameters: ±60° azimuth at
// 1.3°, elevation fixed at 0.
func ConferenceScan() ScanConfig {
	return ScanConfig{AzMin: -60, AzMax: 60, AzStep: 1.3, Elevations: []float64{0}, SweepsPerPosition: 3}
}

// RunScan steps the head through cfg and captures a Trace per position.
// The DUT transmits full sector sweeps; the probe records them. The
// context is observed between positions.
func RunScan(ctx context.Context, link *wil.Link, dut, probe *wil.Device, head *RotationHead, cfg ScanConfig) ([]Trace, error) {
	if cfg.AzStep <= 0 || cfg.AzMax < cfg.AzMin {
		return nil, fmt.Errorf("testbed: invalid azimuth range [%v, %v] step %v", cfg.AzMin, cfg.AzMax, cfg.AzStep)
	}
	if len(cfg.Elevations) == 0 {
		return nil, fmt.Errorf("testbed: no elevations to scan")
	}
	if cfg.SweepsPerPosition <= 0 {
		cfg.SweepsPerPosition = 1
	}
	slots := dot11ad.SweepSchedule()
	var traces []Trace
	for _, el := range cfg.Elevations {
		for az := cfg.AzMin; az <= cfg.AzMax+1e-9; az += cfg.AzStep {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			head.PointAt(dut, az, el)
			trueAz, trueEl, ok := radio.DominantDepartureAngles(link.Env, dut.Pose(), probe.Pose())
			if !ok {
				continue // fully blocked position
			}
			tr := Trace{
				CommandedAz: az,
				CommandedEl: el,
				TrueAz:      trueAz,
				TrueEl:      trueEl,
				TrueSNR:     make(map[sector.ID]float64, 34),
			}
			gt := link.GroundTruth(dut, probe)
			for _, id := range sector.TalonTX() {
				tr.TrueSNR[id] = gt.SNR(id)
			}
			for s := 0; s < cfg.SweepsPerPosition; s++ {
				meas, err := link.RunTXSS(dut, probe, slots)
				if err != nil {
					return nil, err
				}
				tr.Sweeps = append(tr.Sweeps, meas)
			}
			traces = append(traces, tr)
		}
	}
	return traces, nil
}
