package eval

import (
	"context"
	"fmt"
	"math"
	"strings"

	"talon/internal/antenna"
	"talon/internal/channel"
	"talon/internal/core"
	"talon/internal/geom"
	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/testbed"
)

// AblationRow is one measured quantity of an ablation study.
type AblationRow struct {
	Label string
	Value float64
	Unit  string
}

// AblationResult is a named list of measured quantities.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// Table renders the ablation table.
func (a *AblationResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", a.Name)
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "  %-42s %10.3f %s\n", r.Label, r.Value, r.Unit)
	}
	return b.String()
}

// AblationSet bundles the five design-choice ablations as one study
// result, so the registry exposes them under a single name the way the
// suite always ran them.
type AblationSet struct {
	Ablations []*AblationResult
}

// Table renders every bundled ablation.
func (s *AblationSet) Table() string {
	parts := make([]string, len(s.Ablations))
	for i, a := range s.Ablations {
		parts[i] = a.Table()
	}
	return strings.Join(parts, "")
}

// runAblationStudies executes the ablation suite in its canonical order
// on the shared platform. The probing RNG stream matches what the
// pre-registry runner drew ("ablations" split, sub-split per study).
func runAblationStudies(ctx context.Context, p *Platform, cfg Config) (Report, error) {
	rng := studyRNG(cfg, "ablations")
	traces, err := p.Scan(ctx, channel.ConferenceRoom(), 6, cfg.Fidelity.Conference)
	if err != nil {
		return nil, err
	}
	subsets := cfg.Fidelity.SubsetsPerSweep
	set := &AblationSet{}
	add := func(a *AblationResult, err error) error {
		if err != nil {
			return err
		}
		set.Ablations = append(set.Ablations, a)
		return nil
	}
	if err := add(AblationJointCorrelation(ctx, p, traces, 14, subsets, rng)); err != nil {
		return nil, err
	}
	if err := add(AblationMeasuredVsIdeal(ctx, p, traces, 14, subsets, rng)); err != nil {
		return nil, err
	}
	if err := add(AblationProbeSelection(ctx, p, traces, 14, subsets, rng)); err != nil {
		return nil, err
	}
	if err := add(AblationRandomBeams(cfg.Seed, 6)); err != nil {
		return nil, err
	}
	steps := 200
	if cfg.Fidelity.Quick() {
		steps = 60
	}
	if err := add(AblationAdaptiveProbes(ctx, p, steps, rng)); err != nil {
		return nil, err
	}
	return set, nil
}

// AblationJointCorrelation quantifies the Section 5 design choice: the
// joint SNR·RSSI correlation (Eq. 5) against SNR-only correlation
// (Eq. 3), on the same traces at probing count m.
func AblationJointCorrelation(ctx context.Context, p *Platform, traces []testbed.Trace, m, subsets int, rng *stats.RNG) (*AblationResult, error) {
	snrOnly, err := core.NewEstimator(p.Patterns, core.Options{SNROnly: true})
	if err != nil {
		return nil, err
	}
	joint, err := EvaluateTraces(ctx, "joint", traces, p.Estimator, []int{m}, subsets, rng.Split("joint"))
	if err != nil {
		return nil, err
	}
	snr, err := EvaluateTraces(ctx, "snr-only", traces, snrOnly, []int{m}, subsets, rng.Split("snr-only"))
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name: fmt.Sprintf("Eq.5 joint SNR*RSSI correlation vs SNR-only (M=%d)", m),
		Rows: []AblationRow{
			{"joint: mean azimuth error", stats.Mean(joint.PerM[0].AzErrs), "deg"},
			{"SNR-only: mean azimuth error", stats.Mean(snr.PerM[0].AzErrs), "deg"},
			{"joint: mean SNR loss", stats.Mean(joint.PerM[0].SNRLoss), "dB"},
			{"SNR-only: mean SNR loss", stats.Mean(snr.PerM[0].SNRLoss), "dB"},
		},
	}, nil
}

// AblationMeasuredVsIdeal compares CSS on the device's *measured*
// patterns against CSS fed with theoretical patterns "based on
// geometrical antenna layouts" (the prior-work approach the paper argues
// against): without access to the firmware's actual codebook, theory can
// only assume ideal full-aperture beams steered at uniformly spread
// azimuths — missing the real sectors' multi-lobe shapes, partial
// apertures, elevation steering, weak sectors and per-device hardware
// distortions.
func AblationMeasuredVsIdeal(ctx context.Context, p *Platform, traces []testbed.Trace, m, subsets int, rng *stats.RNG) (*AblationResult, error) {
	ideal, err := idealEstimator(p)
	if err != nil {
		return nil, err
	}
	measured, err := EvaluateTraces(ctx, "measured", traces, p.Estimator, []int{m}, subsets, rng.Split("measured"))
	if err != nil {
		return nil, err
	}
	theo, err := EvaluateTraces(ctx, "ideal", traces, ideal, []int{m}, subsets, rng.Split("ideal"))
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name: fmt.Sprintf("measured patterns vs theoretical array-factor patterns (M=%d)", m),
		Rows: []AblationRow{
			{"measured patterns: mean azimuth error", stats.Mean(measured.PerM[0].AzErrs), "deg"},
			{"theoretical patterns: mean azimuth error", stats.Mean(theo.PerM[0].AzErrs), "deg"},
			{"measured patterns: mean SNR loss", stats.Mean(measured.PerM[0].SNRLoss), "dB"},
			{"theoretical patterns: mean SNR loss", stats.Mean(theo.PerM[0].SNRLoss), "dB"},
		},
	}, nil
}

// idealEstimator builds an estimator from geometric theory: an ideal
// (error-free) array steering full-aperture beams at uniformly spread
// azimuths, one per sector ID — what a researcher without firmware access
// would assume, sampled noiselessly on the platform's pattern grid.
func idealEstimator(p *Platform) (*core.Estimator, error) {
	cfg := p.DUT.Array().Config()
	cfg.PhaseErrStd = 0
	cfg.GainErrStdDB = 0
	cfg.FrontRippleStdDB = 0
	ref, err := antenna.New(cfg, stats.NewRNG(0))
	if err != nil {
		return nil, err
	}
	cb := antenna.NewCodebook()
	ids := sector.TalonTX()
	for i, id := range ids {
		az := -75 + 150*float64(i)/float64(len(ids)-1)
		cb.Put(id, ref.SteeringWeights(az, 0))
	}
	grid := gridOf(p.Patterns)
	set := antenna.SamplePatterns(ref, cb, grid)
	return core.NewEstimator(set, core.Options{})
}

func gridOf(set *pattern.Set) *geom.Grid {
	for _, id := range set.IDs() {
		return set.Get(id).Grid()
	}
	return nil
}

// AblationProbeSelection compares random probing subsets against the
// deterministic gain-informed selection of Section 7 at probing count m.
func AblationProbeSelection(ctx context.Context, p *Platform, traces []testbed.Trace, m, subsets int, rng *stats.RNG) (*AblationResult, error) {
	random, err := EvaluateTraces(ctx, "random", traces, p.Estimator, []int{m}, subsets, rng.Split("random"))
	if err != nil {
		return nil, err
	}
	informedSet, err := core.GainInformedProbes(p.Patterns, m)
	if err != nil {
		return nil, err
	}
	var azErrs, losses []float64
	for _, tr := range traces {
		for _, sweep := range tr.Sweeps {
			probes := core.ProbesFromMeasurements(informedSet.IDs(), sweep)
			sel, err := p.Estimator.SelectSector(ctx, probes)
			if err != nil {
				continue
			}
			azErrs = append(azErrs, geom.AzDist(sel.AoA.Az, tr.TrueAz))
			if loss, ok := snrLoss(tr, sel.Sector); ok {
				losses = append(losses, loss)
			}
		}
	}
	return &AblationResult{
		Name: fmt.Sprintf("random vs gain-informed probing sectors (M=%d)", m),
		Rows: []AblationRow{
			{"random probes: mean azimuth error", stats.Mean(random.PerM[0].AzErrs), "deg"},
			{"gain-informed probes: mean azimuth error", stats.Mean(azErrs), "deg"},
			{"random probes: mean SNR loss", stats.Mean(random.PerM[0].SNRLoss), "dB"},
			{"gain-informed probes: mean SNR loss", stats.Mean(losses), "dB"},
		},
	}, nil
}

// AblationRandomBeams reproduces the paper's preliminary experiment:
// pseudo-random probing beams (prior compressive-tracking work)
// substantially reduce link quality on this hardware compared to the
// predefined sectors. For each direction it evaluates the best-beam SNR
// (the link budget the data connection gets) and the fraction of beams
// whose probe frames are decodable (the measurements compressive
// estimation has to work with).
func AblationRandomBeams(seed int64, dist float64) (*AblationResult, error) {
	rng := stats.NewRNG(seed)
	arr, err := antenna.New(antenna.TalonConfig(), rng.Split("array"))
	if err != nil {
		return nil, err
	}
	// The predefined sectors and the pseudo-random beams, in that order.
	codebooks := []*antenna.Codebook{antenna.Talon(arr), antenna.RandomCodebook(arr, rng.Split("beams"), 34)}
	budget := radio.DefaultBudget()
	tx := channel.Pose{}
	tx.Pos.Z = 1.2
	env := channel.AnechoicChamber()

	var bestSum, decodableSum [2]float64
	n := 0
	var geo radio.Geometry
	for az := -60.0; az <= 60; az += 5 {
		rx := channel.Pose{Yaw: 180 + az}
		rx.Pos.X = dist * math.Cos(geom.Deg2Rad(az))
		rx.Pos.Y = dist * math.Sin(geom.Deg2Rad(az))
		rx.Pos.Z = 1.2
		geo.Resolve(env, tx, rx, arr, nil, antenna.Weights{}) // isotropic quasi-omni peer
		for c, cb := range codebooks {
			best := math.Inf(-1)
			clean, beams := 0, 0
			for _, id := range cb.IDs() {
				if id == sector.RX {
					continue
				}
				w, _ := cb.Weights(id)
				snr := geo.SNR(w, budget)
				if snr > best {
					best = snr
				}
				beams++
				// Readings above ~3 dB escape the low-SNR noise boost:
				// these probes produce accurate measurements.
				if snr >= 3 {
					clean++
				}
			}
			bestSum[c] += best
			decodableSum[c] += float64(clean) / float64(beams)
		}
		n++
	}
	nf := float64(n)
	return &AblationResult{
		Name: fmt.Sprintf("predefined sectors vs pseudo-random beams (%.0f m link)", dist),
		Rows: []AblationRow{
			{"predefined sectors: mean best-sector SNR", bestSum[0] / nf, "dB"},
			{"pseudo-random beams: mean best-beam SNR", bestSum[1] / nf, "dB"},
			{"predefined sectors: low-noise probe fraction", decodableSum[0] / nf, ""},
			{"pseudo-random beams: low-noise probe fraction", decodableSum[1] / nf, ""},
		},
	}, nil
}

// AblationAdaptiveProbes runs the Section 7 adaptive probe-count
// controller against fixed budgets in a mobility scenario: the DUT
// alternates between dwelling and swinging to a new azimuth; the
// controller should spend few probes while static and more while moving.
// The study runs on the 3 m lab link, where selections are stable enough
// while dwelling for the budget to shrink. ctx cancels the study between
// training steps.
func AblationAdaptiveProbes(ctx context.Context, p *Platform, steps int, rng *stats.RNG) (*AblationResult, error) {
	if steps <= 0 {
		steps = 120
	}
	dutPose, probePose := testbed.FacingPoses(3, 1.2)
	p.DUT.SetPose(dutPose)
	p.Probe.SetPose(probePose)
	link := newLink(channel.Lab(), p)
	head := testbed.NewRotationHead(rng.Split("head"))

	runPolicy := func(policy func(step int) int, observe func(sector.ID)) (meanLoss, meanProbes float64, e error) {
		az := 0.0
		lossSum, probeSum := 0.0, 0.0
		count := 0
		moveRNG := rng.Split("movement")
		for step := 0; step < steps; step++ {
			if err := ctx.Err(); err != nil {
				return 0, 0, err
			}
			// Dwell for a while, then swing to a new direction.
			if step%20 == 10 {
				az = moveRNG.Uniform(-50, 50)
			}
			head.PointAt(p.DUT, az, 0)
			m := policy(step)
			probeSet, err := core.RandomProbes(moveRNG, sector.TalonTX(), m)
			if err != nil {
				return 0, 0, err
			}
			meas, err := runSubSweep(link, p, probeSet)
			if err != nil {
				return 0, 0, err
			}
			probes := core.ProbesFromMeasurements(probeSet.IDs(), meas)
			sel, err := p.Estimator.SelectSector(ctx, probes)
			if err != nil {
				continue
			}
			if observe != nil {
				observe(sel.Sector)
			}
			if loss, ok := trueLoss(link, p, sel.Sector); ok {
				lossSum += loss
				probeSum += float64(m)
				count++
			}
		}
		if count == 0 {
			return math.NaN(), math.NaN(), nil
		}
		return lossSum / float64(count), probeSum / float64(count), nil
	}

	ctrl := core.NewAdaptiveController(8, 34)
	adaptLoss, adaptProbes, err := runPolicy(func(int) int { return ctrl.M() }, ctrl.Observe)
	if err != nil {
		return nil, err
	}
	fixed14Loss, _, err := runPolicy(func(int) int { return 14 }, nil)
	if err != nil {
		return nil, err
	}
	fixed34Loss, _, err := runPolicy(func(int) int { return 34 }, nil)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name: "adaptive probe count under mobility",
		Rows: []AblationRow{
			{"adaptive: mean probes per training", adaptProbes, "sectors"},
			{"adaptive: mean SNR loss", adaptLoss, "dB"},
			{"fixed M=14: mean SNR loss", fixed14Loss, "dB"},
			{"fixed M=34: mean SNR loss", fixed34Loss, "dB"},
		},
	}, nil
}
