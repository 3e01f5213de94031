package wil

import (
	"math"
	"testing"

	"talon/internal/channel"
	"talon/internal/dot11ad"
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
// steerings, so only the channel's ray list is allocated per sweep;
// RunTXSS adds the copy of the measurement map it returns.
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
	if sweep > 1 {
		t.Errorf("Sweep allocates %v times per 34-slot sweep, want at most 1", sweep)
	}
	if run > 5 {
		t.Errorf("RunTXSS allocates %v times per 34-slot sweep, want at most 5", run)
	}
}

// TestGeometryMatchesTrueSNR checks the per-sweep geometry against
// Link.TrueSNR, which resolves the rays and evaluates Array.Gain afresh
// for every call: in the multipath conference room, over rotated poses
// and with the transmitting device alternating (which rebinds the
// steerings to the other array), every sector's SNR must agree bit for
// bit.
func TestGeometryMatchesTrueSNR(t *testing.T) {
	l, a, b := testPair(t, channel.ConferenceRoom(), 6)
	for i, yaw := range []float64{0, 17.5, -41, 133, 0} {
		for _, dir := range [][2]*Device{{a, b}, {b, a}} {
			tx, rx := dir[0], dir[1]
			p := tx.Pose()
			p.Yaw, p.Tilt = yaw, float64(i)*3
			tx.SetPose(p)
			l.geo.resolve(l.Env, tx, rx)
			if len(l.geo.paths) < 2 {
				t.Fatalf("yaw %v: %d paths, want multipath", yaw, len(l.geo.paths))
			}
			for _, id := range sector.TalonTX() {
				w, _ := tx.Codebook().Weights(id)
				got := l.geo.trueSNR(w, l.Budget)
				want := l.TrueSNR(tx, rx, id)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("yaw %v %s→%s sector %v: geometry %v, TrueSNR %v", yaw, tx.Name(), rx.Name(), id, got, want)
				}
			}
		}
	}
}
