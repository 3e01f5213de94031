package wil

import (
	"math"
	"testing"

	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/radio"
	"talon/internal/sector"
)

// chamberSweepPair is the chamber campaign's setup: both devices
// jailbroken, three meters apart in the anechoic chamber.
func chamberSweepPair(tb testing.TB) (*Link, *Device, *Device) {
	tb.Helper()
	l, a, b := testPair(tb, channel.AnechoicChamber(), 3)
	for _, d := range []*Device{a, b} {
		if err := d.Jailbreak(); err != nil {
			tb.Fatal(err)
		}
	}
	return l, a, b
}

// BenchmarkRunTXSS times one full 34-slot transmit sweep in the chamber,
// the unit of work the pattern campaign repeats at every grid point.
func BenchmarkRunTXSS(b *testing.B) {
	l, tx, rx := chamberSweepPair(b)
	slots := dot11ad.SweepSchedule()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunTXSS(tx, rx, slots); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunTXSSAllocs gates the allocations of one 34-slot chamber sweep.
// Sweep reuses the link's serialize buffer, decoded frame, path slice and
// steerings, and traces the channel's rays into a stack buffer, so it
// allocates nothing; RunTXSS adds the copy of the measurement map it
// returns.
func TestRunTXSSAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	l, tx, rx := chamberSweepPair(t)
	slots := dot11ad.SweepSchedule()
	sweep := testing.AllocsPerRun(50, func() {
		if err := l.Sweep(tx, rx, slots); err != nil {
			t.Fatal(err)
		}
	})
	run := testing.AllocsPerRun(50, func() {
		if _, err := l.RunTXSS(tx, rx, slots); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per sweep: Sweep %v, RunTXSS %v", sweep, run)
	if sweep > 0 {
		t.Errorf("Sweep allocates %v times per 34-slot sweep, want 0", sweep)
	}
	if run > 4 {
		t.Errorf("RunTXSS allocates %v times per 34-slot sweep, want at most 4", run)
	}
}

// TestGroundTruthAllocs gates the allocations of resolving one pose pair
// and reading every transmit sector's true SNR: the link reuses its
// ground-truth paths and steerings and the rays are traced into a stack
// buffer, so nothing is allocated.
func TestGroundTruthAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	l, tx, rx := chamberSweepPair(t)
	sum := 0.0
	allocs := testing.AllocsPerRun(50, func() {
		gt := l.GroundTruth(tx, rx)
		for _, id := range sector.TalonTX() {
			sum += gt.SNR(id)
		}
	})
	t.Logf("allocs per resolve and 34 reads: %v (sum %v)", allocs, sum)
	if allocs > 0 {
		t.Errorf("GroundTruth plus 34 SNR reads allocates %v times, want 0", allocs)
	}
}

// oracleSNR is the reference ground truth, independent of every geometry
// the link keeps: the rays resolved afresh, Array.Gain on each path at
// both ends (the receiver on its quasi-omni sector), then PathSNR.
func oracleSNR(env *channel.Environment, tx, rx *Device, id sector.ID, b radio.Budget) float64 {
	w, ok := tx.Codebook().Weights(id)
	if !ok {
		return math.Inf(-1)
	}
	rxW, _ := rx.Codebook().Weights(sector.RX)
	paths := radio.ResolvePaths(nil, env, tx.Pose(), rx.Pose())
	for i := range paths {
		p := &paths[i]
		p.TXGainDB = tx.Array().Gain(w, p.TXAz, p.TXEl)
		p.RXGainDB = rx.Array().Gain(rxW, p.RXAz, p.RXEl)
	}
	return radio.PathSNR(paths, b)
}

// TestGeometryMatchesTrueSNR checks the link's geometries against
// oracleSNR bit for bit: the delivery geometry, its true-SNR table and
// GroundTruth, for every transmit sector, in the multipath conference
// room, over rotated poses and with the transmitting device alternating
// (which rebinds the steerings to the other array). A sweep sent after
// GroundTruth must leave it intact.
func TestGeometryMatchesTrueSNR(t *testing.T) {
	l, a, b := testPair(t, channel.ConferenceRoom(), 6)
	for i, yaw := range []float64{0, 17.5, -41, 133, 0} {
		for _, dir := range [][2]*Device{{a, b}, {b, a}} {
			tx, rx := dir[0], dir[1]
			p := tx.Pose()
			p.Yaw, p.Tilt = yaw, float64(i)*3
			tx.SetPose(p)
			l.resolveFrames(tx, rx)
			gt := l.GroundTruth(tx, rx)
			if n := len(radio.ResolvePaths(nil, l.Env, tx.Pose(), rx.Pose())); n < 2 {
				t.Fatalf("yaw %v: %d paths, want multipath", yaw, n)
			}
			for _, id := range sector.TalonTX() {
				w, _ := tx.Codebook().Weights(id)
				want := oracleSNR(l.Env, tx, rx, id, l.Budget)
				for name, got := range map[string]float64{
					"delivery geometry": l.geo.SNR(w, l.Budget),
					"true-SNR table":    l.trueSNR(id, w).snr,
					"GroundTruth":       gt.SNR(id),
				} {
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("yaw %v %s→%s sector %v: %s %v, oracle %v", yaw, tx.Name(), rx.Name(), id, name, got, want)
					}
				}
			}
			if err := l.Sweep(rx, tx, dot11ad.SweepSchedule()); err != nil {
				t.Fatal(err)
			}
			if got, want := gt.SNR(63), oracleSNR(l.Env, tx, rx, 63, l.Budget); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("yaw %v %s→%s after a reverse sweep: GroundTruth %v, oracle %v", yaw, tx.Name(), rx.Name(), got, want)
			}
			if snr := gt.SNR(40); !math.IsInf(snr, -1) {
				t.Fatalf("unknown sector 40: true SNR %v, want -Inf", snr)
			}
		}
	}
}

// TestGroundTruthFullyBlocked checks that with no propagation path every
// sector's true SNR is -Inf, as the oracle's.
func TestGroundTruthFullyBlocked(t *testing.T) {
	l, a, b := testPair(t, &channel.Environment{Name: "void", LOSBlocked: true}, 3)
	gt := l.GroundTruth(a, b)
	for _, id := range sector.TalonTX() {
		if snr, want := gt.SNR(id), oracleSNR(l.Env, a, b, id, l.Budget); !math.IsInf(snr, -1) || !math.IsInf(want, -1) {
			t.Fatalf("sector %v through no path: true SNR %v, oracle %v, want -Inf", id, snr, want)
		}
	}
}
