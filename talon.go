// Package talon is a simulation-backed reimplementation of "Compressive
// Millimeter-Wave Sector Selection in Off-the-Shelf IEEE 802.11ad
// Devices" (Steinmetzer et al., CoNEXT 2017).
//
// It bundles the full stack the paper builds on — a 32-element phased
// array with the Talon AD7200's 35 predefined sectors, 60 GHz propagation
// environments, the QCA9500 firmware with its Nexmon-style patches and
// WMI interface, the IEEE 802.11ad sector-sweep MAC, and the anechoic
// chamber testbed — plus the contribution itself: compressive sector
// selection (CSS), which probes a random subset of M sectors, estimates
// the signal's departure angle by correlating the measurements against
// the device's measured 3D sector patterns, and picks the best of all N
// sectors toward that angle. Estimation runs on a precomputed parallel
// correlation engine (see DESIGN.md, "Correlation engine").
//
// The quickest route from zero to a trained link:
//
//	ctx := context.Background()
//	dut, _ := talon.NewDevice(talon.DeviceConfig{Name: "ap", Seed: 1})
//	peer, _ := talon.NewDevice(talon.DeviceConfig{Name: "sta", Seed: 2})
//	dut.Jailbreak()
//	peer.Jailbreak()
//	link := talon.NewLink(talon.ConferenceRoom(), dut, peer)
//	patterns, _ := talon.MeasurePatterns(ctx, dut, peer, talon.DefaultPatternGrid(), 3)
//	est, _ := talon.NewEstimator(patterns, talon.EstimatorOptions{})
//	trainer, _ := talon.NewTrainer(link, est, talon.WithM(14), talon.WithSeed(42))
//	res, _ := trainer.Run(ctx, dut, peer)
//	fmt.Println("transmit on sector", res.Sector)
//
// # Training
//
// Trainer.Run is the single training entry point; options extend the
// round: Mutual adds the full sweep handshake, WithBackup extracts a
// backup sector toward a secondary path, WithTracer observes the stages,
// WithRetry and WithSNRCheck make the round resilient.
//
// # Cancellation
//
// Every long-running entry point — MeasurePatterns, Trainer.Run and the
// campaign drivers in internal/eval — takes a context.Context as its
// first parameter and returns ctx.Err() promptly when it is cancelled
// (checked between grid points, probes and trials).
//
// # Construction
//
// NewTrainer takes the estimator built over the transmitter's measured
// patterns (NewEstimator), so trainers over one pattern set share its
// correlation dictionary and its EstimatorOptions. Functional options
// replace positional knobs: WithM sets the probe budget (default 14, the
// paper's operating point), WithSeed the probing RNG seed.
//
// # Errors
//
// Failure classes are exposed as sentinels matchable with errors.Is:
// ErrNotJailbroken (a firmware feature needs a missing patch),
// ErrTooFewProbes (probe budget or reported measurements below the
// minimum), ErrDegenerateSurface (measurements carry no directional
// information), ErrPatternHole (a pattern set with a grid point no
// sample covers), and ErrUnknownSector (a sector ID the hardware does
// not know).
package talon

import (
	"context"
	"fmt"

	"talon/internal/channel"
	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/fault"
	"talon/internal/geom"
	"talon/internal/pattern"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/testbed"
	"talon/internal/wil"
)

// Re-exported building blocks. The aliases expose the full method sets of
// the internal implementations as public API.
type (
	// Device is a simulated Talon AD7200 router.
	Device = wil.Device
	// DeviceConfig configures a Device.
	DeviceConfig = wil.Config
	// Link couples two devices through a propagation environment.
	Link = wil.Link
	// Environment is a 60 GHz propagation scenario.
	Environment = channel.Environment
	// Pose places a device (position, yaw, tilt).
	Pose = channel.Pose
	// PatternSet holds measured per-sector radiation patterns.
	PatternSet = pattern.Set
	// Grid is an azimuth × elevation sampling grid in degrees.
	Grid = geom.Grid
	// Estimator runs compressive angle-of-arrival estimation.
	Estimator = core.Estimator
	// EstimatorOptions tunes the estimator.
	EstimatorOptions = core.Options
	// Probe is one probed sector's measurement (or miss).
	Probe = core.Probe
	// Selection is a compressive sector selection outcome.
	Selection = core.Selection
	// SectorID identifies an antenna sector (6-bit on-air ID).
	SectorID = sector.ID
	// MACAddr is an EUI-48 station address.
	MACAddr = dot11ad.MACAddr
	// SLSResult summarizes a mutual sector-level sweep.
	SLSResult = wil.SLSResult
	// FallbackReason classifies why a resilient Run degraded to the
	// full-sweep baseline (see Selection.FallbackReason).
	FallbackReason = core.FallbackReason
	// FaultInjector is an impairment layer installable on a Link with
	// SetInjector; build one from internal/fault or use
	// Standard60GHzFaults.
	FaultInjector = fault.Injector
)

// The FallbackReason values a degraded Selection reports.
const (
	FallbackNone              = core.FallbackNone
	FallbackTooFewProbes      = core.FallbackTooFewProbes
	FallbackDegenerateSurface = core.FallbackDegenerateSurface
	FallbackSNRCheck          = core.FallbackSNRCheck
	FallbackTransientFault    = core.FallbackTransientFault
)

// Standard60GHzFaults returns the default hostile-channel impairment
// preset: Gilbert–Elliott frame loss at the given stationary rate with
// meanBurst-frame bursts, RSSI bias and drift, sparse stale feedback,
// record-drop storms and transient WMI failures, all deterministic in
// seed. Install it with Link.SetInjector; clear with SetInjector(nil).
func Standard60GHzFaults(lossRate, meanBurst float64, seed int64) FaultInjector {
	return fault.Standard60GHz(lossRate, meanBurst, seed)
}

// Sentinel errors of the public API, re-exported from the internal
// packages that produce them. Match with errors.Is; all returned errors
// wrap these with call-site detail.
var (
	// ErrNotJailbroken reports a firmware feature whose backing patch is
	// not applied (sweep dump reads, sector override).
	ErrNotJailbroken = wil.ErrNotJailbroken
	// ErrTooFewProbes reports a probe budget out of range or a probe
	// vector with too few usable measurements.
	ErrTooFewProbes = core.ErrTooFewProbes
	// ErrDegenerateSurface reports a correlation surface with no positive
	// maximum: the measurements carry no directional information.
	ErrDegenerateSurface = core.ErrDegenerateSurface
	// ErrPatternHole reports a pattern set that leaves some grid point
	// without a finite gain for some sector; fill the gaps first.
	ErrPatternHole = core.ErrPatternHole
	// ErrUnknownSector reports a sector ID outside the hardware's
	// codebook or the 6-bit on-air range.
	ErrUnknownSector = sector.ErrUnknown
	// ErrInjected marks failures produced by the deterministic fault
	// layer (internal/fault); resilient callers treat them as
	// transient. ErrSNRCheckFailed (run.go) joins these sentinels.
	ErrInjected = fault.ErrInjected
)

// NewDevice builds a simulated router. See wil.Config for the knobs; only
// Name is required, Seed freezes the unit's hardware imperfections.
func NewDevice(cfg DeviceConfig) (*Device, error) { return wil.NewDevice(cfg) }

// NewLink couples a and b inside env with the calibrated default budget.
func NewLink(env *Environment, a, b *Device) *Link { return wil.NewLink(env, a, b) }

// AnechoicChamber returns a reflection-free environment.
func AnechoicChamber() *Environment { return channel.AnechoicChamber() }

// Lab returns the paper's lab environment (weak multipath).
func Lab() *Environment { return channel.Lab() }

// ConferenceRoom returns the paper's conference room (whiteboard
// reflections, stronger multipath).
func ConferenceRoom() *Environment { return channel.ConferenceRoom() }

// DefaultPatternGrid returns a practical grid for the pattern campaign:
// azimuth ±90° in 2° steps, elevation 0–32° in 4° steps (the paper's
// spherical coverage at a resolution that keeps the campaign fast).
func DefaultPatternGrid() *Grid {
	g, err := geom.UniformGrid(-90, 90, 2, 0, 32, 4)
	if err != nil {
		panic(err) // static arguments
	}
	return g
}

// NewGrid builds a uniform measurement grid; steps are in degrees.
func NewGrid(azMin, azMax, azStep, elMin, elMax, elStep float64) (*Grid, error) {
	return geom.UniformGrid(azMin, azMax, azStep, elMin, elMax, elStep)
}

// MeasurePatterns runs the Section 4 anechoic-chamber campaign for dut:
// dut rotates on the measurement head, probe observes from 3 m away, and
// all 35 sector patterns are measured on grid, averaging repeats sweeps
// per point. Both devices are repositioned by the campaign; dut must be
// jailbroken so measurements are readable. The context is observed
// between grid points; a cancelled campaign returns ctx.Err().
func MeasurePatterns(ctx context.Context, dut, probe *Device, grid *Grid, repeats int) (*PatternSet, error) {
	link := wil.NewLink(channel.AnechoicChamber(), dut, probe)
	campaign := testbed.NewChamberCampaign(link, dut, probe, 1)
	campaign.Repeats = repeats
	return campaign.MeasureAllPatterns(ctx, grid)
}

// NewEstimator builds a CSS estimator over measured patterns and
// precomputes its correlation dictionary. The set must not be mutated
// afterwards.
func NewEstimator(patterns *PatternSet, opts EstimatorOptions) (*Estimator, error) {
	return core.NewEstimator(patterns, opts)
}

// Trainer performs compressive beamtraining over a link: it probes a
// random M-of-N sector subset, estimates the departure angle against the
// transmitter's measured patterns, selects the best sector and arms the
// receiver's feedback override so the standard sweep handshake carries
// the compressive choice.
type Trainer struct {
	link *Link
	est  *Estimator
	m    int
	rng  *stats.RNG
	runs int
}

// TrainerOption configures NewTrainer.
type TrainerOption func(*trainerConfig)

type trainerConfig struct {
	m    int
	seed int64
}

// DefaultM is the probe budget a Trainer uses unless WithM overrides it:
// the paper's M = 14 operating point.
const DefaultM = 14

// WithM sets the probe budget per training round (2–34; default
// DefaultM).
func WithM(m int) TrainerOption {
	return func(c *trainerConfig) { c.m = m }
}

// WithSeed seeds the probing-subset RNG (default 1).
func WithSeed(seed int64) TrainerOption {
	return func(c *trainerConfig) { c.seed = seed }
}

// NewTrainer builds a trainer over link that estimates with est, built
// over the transmitter's measured patterns (est.Patterns()), configured
// by functional options:
//
//	trainer, err := talon.NewTrainer(link, est,
//		talon.WithM(14), talon.WithSeed(42))
//
// Defaults: M = DefaultM, seed 1.
func NewTrainer(link *Link, est *Estimator, opts ...TrainerOption) (*Trainer, error) {
	cfg := trainerConfig{m: DefaultM, seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if link == nil {
		return nil, fmt.Errorf("talon: trainer needs a link")
	}
	if est == nil {
		return nil, fmt.Errorf("talon: trainer needs an estimator")
	}
	if cfg.m < 2 || cfg.m > len(sector.TalonTX()) {
		return nil, fmt.Errorf("talon: %w: probe count %d out of range [2, 34]", ErrTooFewProbes, cfg.m)
	}
	return &Trainer{link: link, est: est, m: cfg.m, rng: stats.NewRNG(cfg.seed)}, nil
}

// M returns the probe budget per round.
func (t *Trainer) M() int { return t.m }

// SetM changes the probe budget (e.g. under an adaptive controller).
func (t *Trainer) SetM(m int) error {
	if m < 2 || m > len(sector.TalonTX()) {
		return fmt.Errorf("talon: %w: probe count %d out of range [2, 34]", ErrTooFewProbes, m)
	}
	t.m = m
	return nil
}

// TalonTXSectors lists the 34 predefined transmit sectors.
func TalonTXSectors() []SectorID { return sector.TalonTX() }

// MutualTrainingTime returns the airtime of a mutual training with m
// probes per side (Figure 10's model).
func MutualTrainingTime(m int) float64 {
	return dot11ad.MutualTrainingTime(m).Seconds()
}

// BackupSelection pairs a primary compressive selection with a backup
// sector toward a secondary propagation path.
type BackupSelection = core.BackupSelection

// DefaultBackupSeparationDeg is the minimum angular separation (degrees)
// between primary and backup paths, the usual argument of WithBackup —
// wide enough that the backup survives a blockage of the primary.
const DefaultBackupSeparationDeg = 18
