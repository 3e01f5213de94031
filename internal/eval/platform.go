// Package eval regenerates every table and figure of the paper's
// evaluation: Table 1 (burst schedules), Figures 5–6 (measured sector
// patterns), Figure 7 (angular estimation error), Figure 8 (selection
// stability), Figure 9 (SNR loss), Figure 10 (training time) and
// Figure 11 (throughput), plus the ablation studies DESIGN.md calls out.
//
// Each experiment is a registered Study returning a typed Report: Table
// prints the same rows/series the paper reports, Summary digests them to
// one line, and MarshalJSON emits a machine-readable artifact. Runners
// dispatch by name through Lookup/StudyNames instead of hand-written
// switches.
package eval

import (
	"context"
	"fmt"

	"talon/internal/channel"
	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/geom"
	"talon/internal/pattern"
	"talon/internal/stats"
	"talon/internal/testbed"
	"talon/internal/wil"
)

// Platform is the experiment rig: two simulated Talon AD7200 devices, the
// DUT's measured sector patterns and the estimator built on them.
type Platform struct {
	// Seed reproduces the whole platform.
	Seed int64
	// DUT and Probe are the two devices (both jailbroken).
	DUT, Probe *wil.Device
	// Patterns holds the DUT's patterns measured in the anechoic
	// chamber on PatternGrid.
	Patterns *pattern.Set
	// Estimator is the CSS estimator over Patterns.
	Estimator *core.Estimator
}

// EstimatorOptions returns the constant core.Options{}, the options
// NewPlatform builds every Platform's estimator with.
func EstimatorOptions() core.Options { return core.Options{} }

// NewPlatform creates the devices and runs the chamber pattern campaign
// on grid with the given per-point repeat count. The context is observed
// between campaign grid points.
func NewPlatform(ctx context.Context, seed int64, grid *geom.Grid, repeats int) (*Platform, error) {
	dut, err := wil.NewDevice(wil.Config{
		Name: "talon-dut",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x01},
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	probe, err := wil.NewDevice(wil.Config{
		Name: "talon-probe",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x02},
		Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	if err := dut.Jailbreak(); err != nil {
		return nil, err
	}
	if err := probe.Jailbreak(); err != nil {
		return nil, err
	}
	link := wil.NewLink(channel.AnechoicChamber(), dut, probe)
	campaign := testbed.NewChamberCampaign(link, dut, probe, seed+2)
	campaign.Repeats = repeats
	patterns, err := campaign.MeasureAllPatterns(ctx, grid)
	if err != nil {
		return nil, fmt.Errorf("eval: pattern campaign: %w", err)
	}
	est, err := core.NewEstimator(patterns, EstimatorOptions())
	if err != nil {
		return nil, err
	}
	return &Platform{Seed: seed, DUT: dut, Probe: probe, Patterns: patterns, Estimator: est}, nil
}

// Scan runs an environment scan: the DUT goes on a fresh rotation head at
// the origin, the probe dist meters away, inside env. The context is
// observed between head positions.
func (p *Platform) Scan(ctx context.Context, env *channel.Environment, dist float64, cfg testbed.ScanConfig) ([]testbed.Trace, error) {
	dutPose, probePose := testbed.FacingPoses(dist, 1.2)
	p.DUT.SetPose(dutPose)
	p.Probe.SetPose(probePose)
	link := wil.NewLink(env, p.DUT, p.Probe)
	head := testbed.NewRotationHead(stats.NewRNG(p.Seed).Split("scan-head-" + env.Name))
	return testbed.RunScan(ctx, link, p.DUT, p.Probe, head, cfg)
}

// Fidelity bundles the experiment dimensions so that tests can run the
// same code paths cheaply while the recorded results use full resolution.
type Fidelity struct {
	// Name labels the fidelity ("quick" or "full"); studies with
	// dimensions beyond this struct (repeat counts, trial counts)
	// scale them by it.
	Name string
	// PatternGrid is the chamber campaign grid for CSS pattern
	// knowledge (the scans of Section 6 need elevation coverage).
	PatternGrid *geom.Grid
	// CampaignRepeats is the sweeps averaged per pattern point.
	CampaignRepeats int
	// Lab and Conference are the two scan configurations.
	Lab, Conference testbed.ScanConfig
	// Ms lists the probing-sector counts to evaluate.
	Ms []int
	// SubsetsPerSweep is how many random probing subsets are evaluated
	// per captured sweep and M.
	SubsetsPerSweep int
}

// Full returns the fidelity used for the recorded results: pattern grid
// at 2°/4°, the paper's scan ranges (azimuth subsampled 3× to keep the
// runtime in seconds), and M = 4…34 in steps of 2.
func Full() Fidelity {
	grid, err := geom.UniformGrid(-90, 90, 2, 0, 32, 4)
	if err != nil {
		panic(err)
	}
	lab := testbed.LabScan()
	lab.AzStep *= 3 // 6.75°: 19 positions per elevation
	lab.Elevations = []float64{0, 4, 8, 12, 16, 20, 24, 28}
	lab.SweepsPerPosition = 4
	conf := testbed.ConferenceScan()
	conf.AzStep *= 3 // 3.9°: 31 positions
	conf.SweepsPerPosition = 8
	return Fidelity{
		Name:            "full",
		PatternGrid:     grid,
		CampaignRepeats: 3,
		Lab:             lab,
		Conference:      conf,
		Ms:              []int{4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34},
		SubsetsPerSweep: 3,
	}
}

// Quick reports whether this is the reduced test fidelity.
func (f Fidelity) Quick() bool { return f.Name == "quick" }

// Quick returns a drastically reduced fidelity for unit tests and smoke
// benches.
func Quick() Fidelity {
	grid, err := geom.UniformGrid(-70, 70, 5, 0, 24, 8)
	if err != nil {
		panic(err)
	}
	lab := testbed.ScanConfig{AzMin: -45, AzMax: 45, AzStep: 15, Elevations: []float64{0, 10}, SweepsPerPosition: 2}
	conf := testbed.ScanConfig{AzMin: -45, AzMax: 45, AzStep: 15, Elevations: []float64{0}, SweepsPerPosition: 4}
	return Fidelity{
		Name:            "quick",
		PatternGrid:     grid,
		CampaignRepeats: 2,
		Lab:             lab,
		Conference:      conf,
		Ms:              []int{6, 14, 24, 34},
		SubsetsPerSweep: 2,
	}
}
