package eval

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"talon/internal/channel"
	"talon/internal/sector"
	"talon/internal/stats"
)

// studyOnce caches a Quick-fidelity study across tests: the expensive part
// (campaign + scans) runs once per test binary.
var cachedStudy *EnvironmentStudy

func quickStudy(t *testing.T) *EnvironmentStudy {
	t.Helper()
	if cachedStudy != nil {
		return cachedStudy
	}
	ctx, f := context.Background(), Quick()
	p, err := NewPlatform(ctx, 42, f.PatternGrid, f.CampaignRepeats)
	if err != nil {
		t.Fatal(err)
	}
	s, err := EnvironmentStudyOn(ctx, p, 42, f)
	if err != nil {
		t.Fatal(err)
	}
	cachedStudy = s
	return s
}

func TestTable1(t *testing.T) {
	r := Table1()
	if len(r.Beacon) != 35 || len(r.Sweep) != 35 {
		t.Fatalf("slots: %d / %d", len(r.Beacon), len(r.Sweep))
	}
	out := r.Table()
	for _, want := range []string{"CDOWN", "Beacon", "Sweep", "63", "61"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q", want)
		}
	}
}

func TestFigure5Smoke(t *testing.T) {
	r, err := Figure5(context.Background(), 7, 6, 1) // 6° steps for speed
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Summaries) != 35 {
		t.Fatalf("summaries = %d", len(r.Summaries))
	}
	if r.Grid.NumAz() != 61 || r.Grid.NumEl() != 1 {
		t.Fatalf("grid %dx%d", r.Grid.NumAz(), r.Grid.NumEl())
	}
	strong, wide, weak := r.Classify()
	if len(strong) == 0 || len(weak) == 0 {
		t.Fatalf("classification degenerate: strong=%v wide=%v weak=%v", strong, wide, weak)
	}
	// The known weak sectors must classify as weak.
	weakSet := sector.NewSet(weak...)
	if !weakSet.Contains(25) || !weakSet.Contains(62) {
		t.Errorf("sectors 25/62 not weak: %v", weak)
	}
	if !strings.Contains(r.Table(), "sector") {
		t.Error("Format output empty")
	}
}

func TestFigure6Smoke(t *testing.T) {
	r, err := Figure6(context.Background(), 7, 10, 16, 1) // coarse
	if err != nil {
		t.Fatal(err)
	}
	if r.Grid.NumEl() < 2 {
		t.Fatalf("3D grid has %d elevation rows", r.Grid.NumEl())
	}
	if len(r.Summaries) != 35 {
		t.Fatalf("summaries = %d", len(r.Summaries))
	}
	// Sector 5 peaks above the azimuth plane in 3D.
	for _, s := range r.Summaries {
		if s.Sector == 5 && s.PeakEl < 8 {
			t.Errorf("sector 5 3D peak at el %v", s.PeakEl)
		}
	}
}

func TestEnvironmentStudyShapes(t *testing.T) {
	s := quickStudy(t)
	f7 := s.Figure7()
	if f7.Lab == nil || f7.Conference == nil {
		t.Fatal("missing environments")
	}
	// Azimuth error must improve with more probes (compare extremes).
	for _, te := range []*TraceEval{f7.Lab, f7.Conference} {
		first := te.PerM[0]
		last := te.PerM[len(te.PerM)-1]
		if stats.Median(last.AzErrs) >= stats.Median(first.AzErrs) {
			t.Errorf("%s: error did not improve: %v -> %v", te.Env,
				stats.Median(first.AzErrs), stats.Median(last.AzErrs))
		}
		if last.M != 34 {
			t.Errorf("%s: last M = %d", te.Env, last.M)
		}
	}
	if !strings.Contains(f7.Table(), "azimuth error") {
		t.Error("Figure7 Format incomplete")
	}

	f8 := s.Figure8()
	conf := f8.Conference
	if conf.SSW.Stability <= 0.3 || conf.SSW.Stability > 1 {
		t.Errorf("SSW stability implausible: %v", conf.SSW.Stability)
	}
	// CSS stability grows with M.
	if conf.PerM[len(conf.PerM)-1].Stability <= conf.PerM[0].Stability {
		t.Error("CSS stability did not grow with M")
	}
	if !strings.Contains(f8.Table(), "stability") {
		t.Error("Figure8 Format incomplete")
	}

	f9 := s.Figure9()
	losses := f9.Conference.PerM
	if stats.Mean(losses[len(losses)-1].SNRLoss) >= stats.Mean(losses[0].SNRLoss) {
		t.Error("CSS SNR loss did not shrink with M")
	}
	if !strings.Contains(f9.Table(), "SNR loss") {
		t.Error("Figure9 Format incomplete")
	}
}

func TestHeadlineComputation(t *testing.T) {
	s := quickStudy(t)
	h, err := ComputeHeadline(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if h.SpeedupAt14 < 2.25 || h.SpeedupAt14 > 2.35 {
		t.Errorf("speedup = %v", h.SpeedupAt14)
	}
	if h.SSWStability <= 0 || h.SSWStability > 1 {
		t.Errorf("SSW stability = %v", h.SSWStability)
	}
	out := h.Table()
	for _, want := range []string{"2.3", "crossover", "speed-up"} {
		if !strings.Contains(out, want) {
			t.Errorf("headline missing %q", want)
		}
	}
}

func TestFigure10(t *testing.T) {
	r, err := Figure10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.SSWTime.Microseconds() != 1273 {
		t.Fatalf("SSW time = %v", r.SSWTime)
	}
	if r.CSSAt14.Microseconds() != 553 {
		t.Fatalf("CSS time = %v", r.CSSAt14)
	}
	sp := r.Speedup()
	if sp < 2.25 || sp > 2.35 {
		t.Fatalf("speedup = %v", sp)
	}
	// Times grow linearly in M.
	for i := 1; i < len(r.Times); i++ {
		if r.Times[i] <= r.Times[i-1] {
			t.Fatal("training time not increasing")
		}
	}
	if !strings.Contains(r.Table(), "speed-up at M=14") {
		t.Error("Format incomplete")
	}
}

func TestFigure11(t *testing.T) {
	s := quickStudy(t)
	r, err := Figure11(context.Background(), s.Platform, 14, 6, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, pt := range r.Points {
		// Both algorithms sustain a Gbps-class link in the conference
		// room (the paper's ~1.5 Gbps regime).
		if pt.SSWMbps < 700 || pt.SSWMbps > 2000 {
			t.Errorf("SSW throughput at %v° = %v Mbps", pt.AzimuthDeg, pt.SSWMbps)
		}
		if pt.CSSMbps < 500 || pt.CSSMbps > 2000 {
			t.Errorf("CSS throughput at %v° = %v Mbps", pt.AzimuthDeg, pt.CSSMbps)
		}
	}
	if !strings.Contains(r.Table(), "throughput") {
		t.Error("Format incomplete")
	}
}

func TestEvaluateTracesValidation(t *testing.T) {
	s := quickStudy(t)
	if _, err := EvaluateTraces(context.Background(), "empty", nil, s.Platform.Estimator, []int{6}, 1, stats.NewRNG(1)); err == nil {
		t.Fatal("empty traces accepted")
	}
}

func TestAblations(t *testing.T) {
	s := quickStudy(t)
	traces, err := s.Platform.Scan(context.Background(), channel.ConferenceRoom(), 6, Quick().Conference)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(11)

	joint, err := AblationJointCorrelation(context.Background(), s.Platform, traces, 14, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(joint.Rows) != 4 {
		t.Fatalf("joint rows = %d", len(joint.Rows))
	}

	ideal, err := AblationMeasuredVsIdeal(context.Background(), s.Platform, traces, 14, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ideal.Rows) != 4 || !strings.Contains(ideal.Table(), "theoretical") {
		t.Fatalf("ideal ablation malformed: %+v", ideal)
	}

	probeSel, err := AblationProbeSelection(context.Background(), s.Platform, traces, 14, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(probeSel.Rows) != 4 {
		t.Fatalf("probe selection rows = %d", len(probeSel.Rows))
	}

	beams, err := AblationRandomBeams(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim: predefined sectors keep the link decodable,
	// random pseudo-beams lose budget.
	if beams.Rows[0].Value <= beams.Rows[1].Value {
		t.Errorf("random beams not worse: %+v", beams.Rows)
	}

	adaptive, err := AblationAdaptiveProbes(context.Background(), s.Platform, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive.Rows) != 4 {
		t.Fatalf("adaptive rows = %d", len(adaptive.Rows))
	}
	// The controller must actually save probes against the full sweep.
	if adaptive.Rows[0].Value >= 34 {
		t.Errorf("adaptive controller never shrank: %+v", adaptive.Rows[0])
	}
}

func TestRetrainingStudy(t *testing.T) {
	// A fresh platform, not quickStudy's: the shared devices carry RNG
	// state from whichever tests ran before, so under -shuffle the
	// study's numbers would depend on test order.
	ctx := context.Background()
	p, err := NewPlatform(ctx, 42, Quick().PatternGrid, Quick().CampaignRepeats)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RetrainingStudy(ctx, p, 20, 6*time.Second, stats.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("points = %d", len(r.Points))
	}
	byKey := map[string]RetrainingPoint{}
	for _, pt := range r.Points {
		byKey[fmt.Sprintf("%s@%v", pt.Policy, pt.Interval)] = pt
	}
	// Faster retraining must reduce the staleness loss for the same
	// policy.
	slow := byKey["CSS-14@1s"]
	fast := byKey["CSS-14@100ms"]
	if fast.MeanLossDB >= slow.MeanLossDB {
		t.Errorf("faster CSS cadence did not help: %.2f vs %.2f dB", fast.MeanLossDB, slow.MeanLossDB)
	}
	// CSS at a fast cadence costs fewer probes per second than SSW at
	// the same cadence.
	if css, ssw := byKey["CSS-14@250ms"], byKey["SSW@250ms"]; css.ProbesPerSec >= ssw.ProbesPerSec {
		t.Errorf("CSS probes/s %.0f not below SSW %.0f", css.ProbesPerSec, ssw.ProbesPerSec)
	}
	if !strings.Contains(r.Table(), "cadence") {
		t.Error("Format incomplete")
	}
}

func TestBlockageStudy(t *testing.T) {
	s := quickStudy(t)
	r, err := BlockageStudy(context.Background(), s.Platform, 24, 16, stats.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	if r.BackupFound < 3 {
		t.Fatalf("backup found in only %d/%d rounds", r.BackupFound, r.Rounds)
	}
	// The backup must rescue the blocked link: clearly better than the
	// dead primary.
	if r.BlockedBackupSNRdB <= r.BlockedPrimarySNRdB+3 {
		t.Fatalf("backup %.2f dB does not beat blocked primary %.2f dB",
			r.BlockedBackupSNRdB, r.BlockedPrimarySNRdB)
	}
	// Before blockage the primary is (on average) the stronger sector.
	if r.PrimarySNRdB <= r.BackupSNRdB-1 {
		t.Fatalf("primary %.2f dB weaker than backup %.2f dB", r.PrimarySNRdB, r.BackupSNRdB)
	}
	if !strings.Contains(r.Table(), "Blockage") {
		t.Error("Format incomplete")
	}
}

func TestDensityStudy(t *testing.T) {
	r, err := DensityStudy(context.Background(), 14, 5.5, []int{1, 50, 100, 200, 500, 1000, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2*2*7 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// At the mobility cadence (100 ms) the stock sweep saturates the
	// medium at far fewer pairs than CSS.
	ssw := r.SaturationPairs("SSW", 100*time.Millisecond)
	css := r.SaturationPairs("CSS-14", 100*time.Millisecond)
	if ssw == 0 {
		t.Fatal("SSW never saturated at 100 ms cadence")
	}
	if css != 0 && css <= ssw {
		t.Fatalf("CSS saturates at %d pairs, SSW at %d — wrong order", css, ssw)
	}
	// At equal density and cadence, CSS leaves more airtime for data.
	var sswShare, cssShare float64
	for _, pt := range r.Points {
		if pt.Pairs == 200 && pt.Interval == time.Second {
			if pt.Policy == "SSW" {
				sswShare = pt.TrainShare
			} else {
				cssShare = pt.TrainShare
			}
		}
	}
	if cssShare >= sswShare {
		t.Fatalf("CSS train share %.3f not below SSW %.3f", cssShare, sswShare)
	}
	if !strings.Contains(r.Table(), "aggregate") {
		t.Error("Format incomplete")
	}
}

func TestDensifyStudy(t *testing.T) {
	r, err := DensifyStudy(context.Background(), 42, 14, []int{34, 63}, 40, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	var ssw34, ssw63, css34, css63 DensifyPoint
	for _, pt := range r.Points {
		switch {
		case pt.Policy == "SSW" && pt.Sectors == 34:
			ssw34 = pt
		case pt.Policy == "SSW" && pt.Sectors == 63:
			ssw63 = pt
		case pt.Sectors == 34:
			css34 = pt
		default:
			css63 = pt
		}
	}
	// The sweep's airtime grows with the codebook; CSS's stays flat.
	if ssw63.TrainTime <= ssw34.TrainTime {
		t.Fatal("SSW training time did not grow with the codebook")
	}
	if css63.TrainTime != css34.TrainTime {
		t.Fatal("CSS training time changed with the codebook")
	}
	// On the dense codebook CSS must at least match the sweep's quality
	// while training ~4x faster.
	if css63.MeanLossDB > ssw63.MeanLossDB+0.5 {
		t.Fatalf("dense codebook: CSS loss %.2f vs SSW %.2f", css63.MeanLossDB, ssw63.MeanLossDB)
	}
	if !strings.Contains(r.Table(), "densification") {
		t.Error("Format incomplete")
	}
}
