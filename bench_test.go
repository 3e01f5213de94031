package talon_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation studies DESIGN.md calls out and micro-benchmarks of the hot
// paths. The figure benches share one captured data set (chamber pattern
// campaign + conference-room traces) and time the per-figure analysis.
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"talon/internal/antenna"
	"talon/internal/channel"
	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/eval"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/testbed"
	"talon/internal/wil"
)

// benchRig is the shared captured data set for the figure benches.
type benchRig struct {
	platform *eval.Platform
	traces   []testbed.Trace
	labTrcs  []testbed.Trace
	fidelity eval.Fidelity
}

var (
	rigOnce sync.Once
	rig     *benchRig
	rigErr  error
)

func benchSetup(b *testing.B) *benchRig {
	b.Helper()
	rigOnce.Do(func() {
		f := eval.Quick()
		p, err := eval.NewPlatform(context.Background(), 42, f.PatternGrid, f.CampaignRepeats)
		if err != nil {
			rigErr = err
			return
		}
		conf, err := p.Scan(context.Background(), channel.ConferenceRoom(), 6, f.Conference)
		if err != nil {
			rigErr = err
			return
		}
		lab, err := p.Scan(context.Background(), channel.Lab(), 3, f.Lab)
		if err != nil {
			rigErr = err
			return
		}
		rig = &benchRig{platform: p, traces: conf, labTrcs: lab, fidelity: f}
	})
	if rigErr != nil {
		b.Fatal(rigErr)
	}
	return rig
}

// BenchmarkTable1_BurstSchedules regenerates Table 1.
func BenchmarkTable1_BurstSchedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Table1()
		if len(r.Sweep) != 35 {
			b.Fatal("bad schedule")
		}
		_ = r.Table()
	}
}

// BenchmarkFigure5_AzimuthPatterns runs the azimuth-cut chamber campaign
// (coarsened grid; the paper's 0.9° steps scale linearly).
func BenchmarkFigure5_AzimuthPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Figure5(context.Background(), int64(i)+1, 9, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Summaries) != 35 {
			b.Fatal("missing sectors")
		}
	}
}

// BenchmarkFigure6_SphericalPatterns runs the 3D chamber campaign
// (coarsened grid).
func BenchmarkFigure6_SphericalPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Figure6(context.Background(), int64(i)+1, 12, 16, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Summaries) != 35 {
			b.Fatal("missing sectors")
		}
	}
}

// BenchmarkFigure7_PathEstimationError evaluates the angular estimation
// error over the captured lab traces.
func BenchmarkFigure7_PathEstimationError(b *testing.B) {
	r := benchSetup(b)
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		te, err := eval.EvaluateTraces(context.Background(), "lab", r.labTrcs, r.platform.Estimator, []int{10, 20}, 1, rng)
		if err != nil {
			b.Fatal(err)
		}
		if len(te.PerM) != 2 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFigure8_SelectionStability evaluates selection stability over
// the conference-room traces.
func BenchmarkFigure8_SelectionStability(b *testing.B) {
	r := benchSetup(b)
	rng := stats.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		te, err := eval.EvaluateTraces(context.Background(), "conference", r.traces, r.platform.Estimator, []int{14}, 2, rng)
		if err != nil {
			b.Fatal(err)
		}
		if te.SSW.Stability <= 0 {
			b.Fatal("degenerate stability")
		}
	}
}

// BenchmarkFigure9_SNRLoss evaluates the SNR-loss series.
func BenchmarkFigure9_SNRLoss(b *testing.B) {
	r := benchSetup(b)
	rng := stats.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		te, err := eval.EvaluateTraces(context.Background(), "conference", r.traces, r.platform.Estimator, []int{6, 14, 34}, 1, rng)
		if err != nil {
			b.Fatal(err)
		}
		if len(te.PerM[0].SNRLoss) == 0 {
			b.Fatal("no losses recorded")
		}
	}
}

// BenchmarkFigure10_TrainingTime evaluates the training-time model.
func BenchmarkFigure10_TrainingTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Figure10(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if sp := r.Speedup(); sp < 2.25 || sp > 2.35 {
			b.Fatalf("speedup %v", sp)
		}
	}
}

// BenchmarkFigure11_Throughput evaluates the three-direction throughput
// experiment.
func BenchmarkFigure11_Throughput(b *testing.B) {
	r := benchSetup(b)
	rng := stats.NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.Figure11(context.Background(), r.platform, 14, 4, rng)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != 3 {
			b.Fatal("bad points")
		}
	}
}

// BenchmarkAblation_JointCorrelation times the Eq. 5 vs SNR-only study.
func BenchmarkAblation_JointCorrelation(b *testing.B) {
	r := benchSetup(b)
	rng := stats.NewRNG(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.AblationJointCorrelation(context.Background(), r.platform, r.traces, 14, 1, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_MeasuredVsIdealPatterns times the measured-vs-
// theoretical-pattern study.
func BenchmarkAblation_MeasuredVsIdealPatterns(b *testing.B) {
	r := benchSetup(b)
	rng := stats.NewRNG(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.AblationMeasuredVsIdeal(context.Background(), r.platform, r.traces, 14, 1, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ProbeSelection times random vs gain-informed probing.
func BenchmarkAblation_ProbeSelection(b *testing.B) {
	r := benchSetup(b)
	rng := stats.NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.AblationProbeSelection(context.Background(), r.platform, r.traces, 14, 1, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_RandomBeams times the predefined-vs-random-beams
// link-budget study.
func BenchmarkAblation_RandomBeams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.AblationRandomBeams(int64(i)+1, 6)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].Value <= res.Rows[1].Value {
			b.Fatal("random beams unexpectedly good")
		}
	}
}

// BenchmarkAblation_AdaptiveProbes times the mobility study with the
// adaptive probe-count controller.
func BenchmarkAblation_AdaptiveProbes(b *testing.B) {
	r := benchSetup(b)
	rng := stats.NewRNG(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.AblationAdaptiveProbes(context.Background(), r.platform, 40, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkCore_SelectSector times one compressive selection (M=14) from
// captured measurements, the per-training cost on the host.
func BenchmarkCore_SelectSector(b *testing.B) {
	r := benchSetup(b)
	rng := stats.NewRNG(9)
	probeSet, err := core.RandomProbes(rng, sector.TalonTX(), 14)
	if err != nil {
		b.Fatal(err)
	}
	tr := r.traces[len(r.traces)/2]
	probes := core.ProbesFromMeasurements(probeSet.IDs(), tr.Sweeps[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.platform.Estimator.SelectSector(context.Background(), probes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEval_TraceTrials times the bounded-parallel trial loop of
// EvaluateTraces at the default worker count (GOMAXPROCS) versus
// forced-serial execution (GOMAXPROCS 1). Results are identical at any
// setting; only wall clock differs (on multi-core hosts).
func BenchmarkEval_TraceTrials(b *testing.B) {
	r := benchSetup(b)
	for _, bc := range []struct {
		name  string
		procs int
	}{{"serial", 1}, {"default", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bc.procs))
			}
			rng := stats.NewRNG(12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.EvaluateTraces(context.Background(), "conference", r.traces, r.platform.Estimator, []int{6, 14, 24}, 2, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDot11ad_FrameRoundTrip times SSW frame serialize + decode.
func BenchmarkDot11ad_FrameRoundTrip(b *testing.B) {
	f := dot11ad.NewSSWFrame(
		dot11ad.MACAddr{1, 2, 3, 4, 5, 6}, dot11ad.MACAddr{6, 5, 4, 3, 2, 1},
		dot11ad.DirectionResponder, 17, 22,
		dot11ad.SSWFeedbackField{SectorSelect: 8, SNRReport: 77},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := f.Serialize()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dot11ad.DecodeFrame(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAntenna_Gain times one far-field gain evaluation.
func BenchmarkAntenna_Gain(b *testing.B) {
	arr, err := antenna.New(antenna.TalonConfig(), stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	w := arr.SteeringWeights(25, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = arr.Gain(w, 10, 3)
	}
}

// BenchmarkWil_MutualSLS times a full protocol-level mutual sector sweep
// including channel evaluation and frame codecs.
func BenchmarkWil_MutualSLS(b *testing.B) {
	r := benchSetup(b)
	link := r.newChamberLink(b)
	slots := dot11ad.SweepSchedule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := link.RunSLS(r.platform.DUT, r.platform.Probe, slots, slots); err != nil {
			b.Fatal(err)
		}
	}
}

func (r *benchRig) newChamberLink(b *testing.B) *wil.Link {
	b.Helper()
	dutPose, probePose := testbed.FacingPoses(3, 1.2)
	r.platform.DUT.SetPose(dutPose)
	r.platform.Probe.SetPose(probePose)
	return wil.NewLink(channel.AnechoicChamber(), r.platform.DUT, r.platform.Probe)
}

// BenchmarkRetrainingStudy times the Section 7 retraining-cadence study
// (mobility session simulation for both policies at several cadences).
func BenchmarkRetrainingStudy(b *testing.B) {
	r := benchSetup(b)
	rng := stats.NewRNG(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RetrainingStudy(context.Background(), r.platform, 20, 4*time.Second, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockageStudy times the backup-sector blockage experiment
// (multipath estimation with successive interference cancellation).
func BenchmarkBlockageStudy(b *testing.B) {
	r := benchSetup(b)
	rng := stats.NewRNG(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.BlockageStudy(context.Background(), r.platform, 24, 6, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDensityStudy times the dense-deployment pollution model.
func BenchmarkDensityStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.DensityStudy(context.Background(), 14, 5.5, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) == 0 {
			b.Fatal("empty study")
		}
	}
}

// BenchmarkDensifyStudy times the codebook-densification experiment.
func BenchmarkDensifyStudy(b *testing.B) {
	rng := stats.NewRNG(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.DensifyStudy(context.Background(), 42, 14, []int{34, 63}, 10, rng); err != nil {
			b.Fatal(err)
		}
	}
}
