package session

import (
	"context"
	"math"
	"testing"
	"time"

	"talon/internal/channel"
	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/geom"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/testbed"
	"talon/internal/wil"
)

type fixture struct {
	link   *wil.Link
	tx, rx *wil.Device
	est    *core.Estimator
}

var cached *fixture

func setup(t *testing.T) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	tx, err := wil.NewDevice(wil.Config{Name: "tx", MAC: dot11ad.MACAddr{2, 0, 0, 0, 9, 1}, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := wil.NewDevice(wil.Config{Name: "rx", MAC: dot11ad.MACAddr{2, 0, 0, 0, 9, 2}, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*wil.Device{tx, rx} {
		if err := d.Jailbreak(); err != nil {
			t.Fatal(err)
		}
	}
	grid, err := geom.UniformGrid(-80, 80, 3, 0, 24, 6)
	if err != nil {
		t.Fatal(err)
	}
	chamber := wil.NewLink(channel.AnechoicChamber(), tx, rx)
	campaign := testbed.NewChamberCampaign(chamber, tx, rx, 33)
	campaign.Repeats = 2
	patterns, err := campaign.MeasureAllPatterns(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewEstimator(patterns, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached = &fixture{
		link: wil.NewLink(channel.Lab(), tx, rx),
		tx:   tx, rx: rx,
		est: est,
	}
	// Tests share the fixture; restore the canonical static geometry so
	// a prior test's mobility cannot leak into the next.
	txPose, rxPose := testbed.FacingPoses(3, 1.2)
	cached.tx.SetPose(txPose)
	cached.rx.SetPose(rxPose)
	return cached
}

func TestRunValidation(t *testing.T) {
	f := setup(t)
	if _, err := Run(context.Background(), f.link, f.tx, f.rx, SSWPolicy{}); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestStaticSessionSSW(t *testing.T) {
	f := setup(t)
	res, err := Run(context.Background(), f.link, f.tx, f.rx, SSWPolicy{},
		WithDuration(10*time.Second),
		WithTrainingInterval(time.Second),
		WithEvalStep(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "SSW" {
		t.Fatalf("policy = %q", res.Policy)
	}
	if len(res.Points) != 10 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.TotalProbes != 340 {
		t.Fatalf("probes = %d", res.TotalProbes)
	}
	if res.MeanThroughputMbps < 800 {
		t.Fatalf("static 3 m link throughput = %v Mbps", res.MeanThroughputMbps)
	}
	// At 3 m many sectors saturate the reporting ceiling, so argmax
	// ties can land a few true-dB below optimum at identical throughput.
	if res.MeanLossDB > 6 {
		t.Fatalf("static SSW loss = %v dB", res.MeanLossDB)
	}
}

func TestStaticSessionCSS(t *testing.T) {
	f := setup(t)
	css := &CSSPolicy{Estimator: f.est, M: 14, RNG: stats.NewRNG(5)}
	if css.Name() != "CSS-14" {
		t.Fatalf("name = %q", css.Name())
	}
	res, err := Run(context.Background(), f.link, f.tx, f.rx, css,
		WithDuration(10*time.Second),
		WithTrainingInterval(time.Second),
		WithEvalStep(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalProbes != 140 {
		t.Fatalf("probes = %d", res.TotalProbes)
	}
	if res.MeanThroughputMbps < 700 {
		t.Fatalf("CSS throughput = %v Mbps", res.MeanThroughputMbps)
	}
}

func TestMobilitySession(t *testing.T) {
	f := setup(t)
	css := &CSSPolicy{Estimator: f.est, M: 14, RNG: stats.NewRNG(6)}
	res, err := Run(context.Background(), f.link, f.tx, f.rx, css,
		WithDuration(20*time.Second),
		WithTrainingInterval(500*time.Millisecond),
		WithMobility(OrbitMobility(3, 12)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 160 { // 40 intervals x 4 evaluation steps
		t.Fatalf("points = %d", len(res.Points))
	}
	// Selections must follow the orbit: several distinct sectors.
	distinct := map[interface{}]bool{}
	for _, p := range res.Points {
		distinct[p.Sector] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("tracking produced only %d distinct sectors", len(distinct))
	}
	if res.MeanLossDB > 5 {
		t.Fatalf("tracking loss = %v dB", res.MeanLossDB)
	}
}

func TestFasterRetrainingHelpsUnderMobility(t *testing.T) {
	f := setup(t)
	// The Section 7 argument: with mobility, CSS's cheap trainings can
	// run more often; per-interval SNR loss shrinks versus a slow SSW
	// cadence on the same trajectory.
	slow, err := Run(context.Background(), f.link, f.tx, f.rx, SSWPolicy{},
		WithDuration(24*time.Second),
		WithTrainingInterval(2*time.Second),
		WithMobility(OrbitMobility(3, 18)))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(context.Background(), f.link, f.tx, f.rx, &CSSPolicy{Estimator: f.est, M: 14, RNG: stats.NewRNG(8)},
		WithDuration(24*time.Second),
		WithTrainingInterval(500*time.Millisecond),
		WithMobility(OrbitMobility(3, 18)))
	if err != nil {
		t.Fatal(err)
	}
	// The fast-retraining CSS session must not lose more SNR than the
	// slow SSW cadence despite probing less than the sweep per round.
	if fast.MeanLossDB > slow.MeanLossDB+0.5 {
		t.Fatalf("fast CSS loss %v dB vs slow SSW %v dB", fast.MeanLossDB, slow.MeanLossDB)
	}
	if math.IsNaN(fast.MeanThroughputMbps) || fast.MeanThroughputMbps <= 0 {
		t.Fatalf("fast throughput = %v", fast.MeanThroughputMbps)
	}
}

func TestEnsembleCSSPolicy(t *testing.T) {
	f := setup(t)
	ens := &EnsembleCSSPolicy{Estimator: f.est, M: 14, RNG: stats.NewRNG(12)}
	if ens.Name() != "CSS-14-ens" {
		t.Fatalf("name = %q", ens.Name())
	}
	// A direct training round: valid sector, probe cost equal to the
	// budget (the leave-one-out resamples reuse the same airtime).
	out, err := ens.Train(context.Background(), f.link, f.tx, f.rx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Probes != 14 {
		t.Fatalf("probe cost = %d, want the budget 14", out.Probes)
	}
	valid := false
	for _, txID := range sector.TalonTX() {
		if out.Sector == txID {
			valid = true
			break
		}
	}
	if !valid {
		t.Fatalf("trained sector %d outside the TX codebook", out.Sector)
	}
	// And a full session: the ensemble must hold CSS-grade throughput.
	res, err := Run(context.Background(), f.link, f.tx, f.rx, ens,
		WithDuration(10*time.Second),
		WithTrainingInterval(time.Second),
		WithEvalStep(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalProbes != 140 {
		t.Fatalf("probes = %d", res.TotalProbes)
	}
	if res.MeanThroughputMbps < 700 {
		t.Fatalf("ensemble CSS throughput = %v Mbps", res.MeanThroughputMbps)
	}
}
