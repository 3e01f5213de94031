package eval

import (
	"context"
	"strings"
	"testing"

	"talon/internal/obs"
)

// TestFaultSweepResilience is the acceptance run of the fault campaign:
// under 20% Gilbert–Elliott loss with fixed seeds, the resilient trainer
// must never hard-error across 200 trials, and the median selected
// sector must stay within 3 dB of the no-loss optimum.
func TestFaultSweepResilience(t *testing.T) {
	s := quickStudy(t)
	r, err := FaultSweep(context.Background(), s.Platform, FaultSweepConfig{
		LossRates: []float64{0, 0.2},
		Trials:    200,
		Seed:      99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(r.Points))
	}
	for _, pt := range r.Points {
		if pt.HardErrors != 0 {
			t.Fatalf("loss rate %.2f: %d hard errors, want 0", pt.LossRate, pt.HardErrors)
		}
		if pt.Trials != 200 {
			t.Fatalf("loss rate %.2f: %d trials recorded", pt.LossRate, pt.Trials)
		}
	}
	clean, lossy := r.Points[0], r.Points[1]
	if lossy.MedianLossDB > 3 {
		t.Fatalf("median SNR loss at 20%% frame loss = %.2f dB, want <= 3", lossy.MedianLossDB)
	}
	if lossy.MedianLossDB < clean.MedianLossDB-0.5 {
		t.Fatalf("lossy median %.2f dB implausibly better than clean %.2f dB",
			lossy.MedianLossDB, clean.MedianLossDB)
	}
	// The impaired channel must actually exercise the resilient path:
	// retries or degradations, and more of them than the clean channel
	// (whose only trigger is measurement noise on the verification
	// probe).
	if lossy.Retried == 0 && lossy.Degraded == 0 {
		t.Error("20% loss exercised neither retry nor fallback")
	}
	if lossy.Retried+lossy.Degraded <= clean.Retried+clean.Degraded {
		t.Errorf("lossy channel (%d retried, %d degraded) not harder than clean (%d, %d)",
			lossy.Retried, lossy.Degraded, clean.Retried, clean.Degraded)
	}
	out := r.Table()
	for _, want := range []string{"loss rate", "degraded", "median"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q", want)
		}
	}
}

// TestFaultSweepDeterministic re-runs a small campaign on a fresh
// platform with identical seeds and expects identical outcome counts.
func TestFaultSweepDeterministic(t *testing.T) {
	run := func() []FaultSweepPoint {
		p, err := NewPlatform(context.Background(), 17, Quick().PatternGrid, 2)
		if err != nil {
			t.Fatal(err)
		}
		r, err := FaultSweep(context.Background(), p, FaultSweepConfig{
			LossRates: []float64{0.1},
			Trials:    20,
			Seed:      5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Points
	}
	a, b := run(), run()
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("campaign not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestFaultSweepSharesEstimator checks that every trial trains with the
// platform's estimator: the core_dict_build_seconds count does not move
// across a FaultSweep, so no trial builds a correlation dictionary.
func TestFaultSweepSharesEstimator(t *testing.T) {
	p, err := NewPlatform(context.Background(), 17, Quick().PatternGrid, 2)
	if err != nil {
		t.Fatal(err)
	}
	dictBuilds := func() int64 {
		h, ok := obs.Default().Snapshot()["core_dict_build_seconds"].(obs.HistogramSnapshot)
		if !ok {
			t.Fatal("core_dict_build_seconds is not a registered histogram")
		}
		return h.Count
	}
	before := dictBuilds()
	if _, err := FaultSweep(context.Background(), p, FaultSweepConfig{
		LossRates: []float64{0, 0.1},
		Trials:    5,
		Seed:      5,
	}); err != nil {
		t.Fatal(err)
	}
	if after := dictBuilds(); after != before {
		t.Fatalf("FaultSweep built %d dictionaries, want 0", after-before)
	}
}
