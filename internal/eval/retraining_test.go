package eval

import (
	"context"
	"math"
	"testing"
	"time"

	"talon/internal/channel"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/wil"
)

// retrainingRig builds a fresh quick platform and the lab link between
// its devices. Each test gets its own, so no device state leaks between
// tests under -shuffle.
func retrainingRig(t *testing.T) (*Platform, *wil.Link) {
	t.Helper()
	p, err := NewPlatform(context.Background(), 42, Quick().PatternGrid, Quick().CampaignRepeats)
	if err != nil {
		t.Fatal(err)
	}
	return p, newLink(channel.Lab(), p)
}

func simulate(t *testing.T, pol retrainPolicy, interval, duration time.Duration, degPerSec float64) RetrainingPoint {
	t.Helper()
	p, link := retrainingRig(t)
	pt, err := simulateRetraining(context.Background(), p, link, pol, interval, duration, degPerSec)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// The static sessions orbit at 0°/s: the receiver stays parked 3 m from
// the transmitter, at the −60° end of the swing.

func TestStaticSessionSSW(t *testing.T) {
	pt := simulate(t, retrainPolicy{}, time.Second, 10*time.Second, 0)
	if pt.Policy != "SSW" {
		t.Fatalf("policy = %q", pt.Policy)
	}
	if pt.ProbesPerSec != 34 {
		t.Fatalf("probes/s = %v, want the full sweep's 34", pt.ProbesPerSec)
	}
	if pt.MeanMbps < 800 {
		t.Fatalf("static 3 m link throughput = %v Mbps", pt.MeanMbps)
	}
	// At 3 m many sectors saturate the reporting ceiling, so argmax
	// ties can land a few true-dB below optimum at identical throughput.
	if pt.MeanLossDB > 6 {
		t.Fatalf("static SSW loss = %v dB", pt.MeanLossDB)
	}
}

func TestStaticSessionCSS(t *testing.T) {
	pt := simulate(t, retrainPolicy{probes: 14, rng: stats.NewRNG(5)}, time.Second, 10*time.Second, 0)
	if pt.Policy != "CSS-14" {
		t.Fatalf("policy = %q", pt.Policy)
	}
	if pt.ProbesPerSec != 14 {
		t.Fatalf("probes/s = %v, want the budget 14", pt.ProbesPerSec)
	}
	if pt.MeanMbps < 700 {
		t.Fatalf("CSS throughput = %v Mbps", pt.MeanMbps)
	}
}

func TestMobilitySession(t *testing.T) {
	pol := retrainPolicy{probes: 14, rng: stats.NewRNG(6)}
	pt := simulate(t, pol, 500*time.Millisecond, 20*time.Second, 12)
	if pt.MeanLossDB > 5 {
		t.Fatalf("tracking loss = %v dB", pt.MeanLossDB)
	}
	// Selections must follow the orbit: several distinct sectors over
	// the same trajectory.
	p, link := retrainingRig(t)
	distinct := map[sector.ID]bool{}
	for tt := time.Duration(0); tt < 20*time.Second; tt += 500 * time.Millisecond {
		orbit(p.DUT, p.Probe, 12, tt)
		id, err := pol.train(context.Background(), p, link)
		if err == nil {
			distinct[id] = true
		}
	}
	if len(distinct) < 4 {
		t.Fatalf("tracking produced only %d distinct sectors", len(distinct))
	}
}

func TestFasterRetrainingHelpsUnderMobility(t *testing.T) {
	// The Section 7 argument: with mobility, CSS's cheap trainings can
	// run more often; per-interval SNR loss shrinks versus a slow SSW
	// cadence on the same trajectory.
	slow := simulate(t, retrainPolicy{}, 2*time.Second, 24*time.Second, 18)
	fast := simulate(t, retrainPolicy{probes: 14, rng: stats.NewRNG(8)}, 500*time.Millisecond, 24*time.Second, 18)
	// The fast-retraining CSS session must not lose more SNR than the
	// slow SSW cadence despite probing less than the sweep per round.
	if fast.MeanLossDB > slow.MeanLossDB+0.5 {
		t.Fatalf("fast CSS loss %v dB vs slow SSW %v dB", fast.MeanLossDB, slow.MeanLossDB)
	}
	if math.IsNaN(fast.MeanMbps) || fast.MeanMbps <= 0 {
		t.Fatalf("fast throughput = %v", fast.MeanMbps)
	}
}

func TestEnsembleCSSPolicy(t *testing.T) {
	ens := retrainPolicy{probes: 14, ensemble: true, rng: stats.NewRNG(12)}
	if ens.name() != "CSS-14-ens" {
		t.Fatalf("name = %q", ens.name())
	}
	// A direct training round: a valid sector, at a cost equal to the
	// budget (the leave-one-out resamples reuse the same airtime).
	if ens.cost() != 14 {
		t.Fatalf("probe cost = %d, want the budget 14", ens.cost())
	}
	p, link := retrainingRig(t)
	id, err := ens.train(context.Background(), p, link)
	if err != nil {
		t.Fatal(err)
	}
	valid := false
	for _, txID := range sector.TalonTX() {
		if id == txID {
			valid = true
			break
		}
	}
	if !valid {
		t.Fatalf("trained sector %d outside the TX codebook", id)
	}
	// And a full session: the ensemble must hold CSS-grade throughput.
	pt := simulate(t, ens, time.Second, 10*time.Second, 0)
	if pt.ProbesPerSec != 14 {
		t.Fatalf("probes/s = %v", pt.ProbesPerSec)
	}
	if pt.MeanMbps < 700 {
		t.Fatalf("ensemble CSS throughput = %v Mbps", pt.MeanMbps)
	}
}
