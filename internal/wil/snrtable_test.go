package wil

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/radio"
	"talon/internal/sector"
)

// checkSweepsMatchOracle runs sweeps sweeps from tx to rx on l and checks
// every frame against oracleSNR bit for bit: each transmit sector's entry
// in the link's true-SNR table, and each reading, against a twin pair
// (devices built from the same seeds) whose receiver draws from
// Observe(oracleSNR) frame by frame. It returns the sum of the oracle's
// finite SNRs, so a caller can tell that a step changed them.
func checkSweepsMatchOracle(t *testing.T, step string, l *Link, tx, rx, twinTX, twinRX *Device, sweeps int) float64 {
	t.Helper()
	slots := dot11ad.SweepSchedule()
	sum := 0.0
	for s := 0; s < sweeps; s++ {
		if err := l.Sweep(tx, rx, slots); err != nil {
			t.Fatal(err)
		}
		for _, slot := range slots {
			if !slot.Used {
				continue
			}
			id := slot.Sector
			want := oracleSNR(l.Env, twinTX, twinRX, id, l.Budget)
			if s == 0 && !math.IsInf(want, -1) {
				sum += want
			}
			if e := l.snrs[id]; e.gen != l.snrGen || math.Float64bits(e.snr) != math.Float64bits(want) {
				t.Fatalf("%s, sweep %d, sector %v: table SNR %v (gen %d of %d), oracle %v", step, s, id, e.snr, e.gen, l.snrGen, want)
			}
			wantMeas, wantOK := twinRX.Model().Observe(want, twinRX.MeasRNG())
			got, ok := rx.Firmware().SweepMeasurement(id)
			if ok != wantOK || got != wantMeas {
				t.Fatalf("%s, sweep %d, sector %v: reading %+v (%v), oracle's %+v (%v)", step, s, id, got, ok, wantMeas, wantOK)
			}
		}
	}
	return sum
}

// TestTrueSNRTableClears changes one input of the link's true-SNR table
// at a time, at one pose, and checks that every frame after the change
// sees the oracle's true SNR. The environment is edited in place, as the
// blockage study does, so a table keyed on the environment pointer would
// serve stale SNRs.
func TestTrueSNRTableClears(t *testing.T) {
	l, a, b := testPair(t, channel.ConferenceRoom(), 6)
	_, twinA, twinB := testPair(t, l.Env, 6)
	pose := a.Pose()
	pose.Yaw = 23
	a.SetPose(pose)
	twinA.SetPose(pose)
	env := l.Env

	prev := checkSweepsMatchOracle(t, "initial", l, a, b, twinA, twinB, 3)
	gen := l.snrGen
	checkSweepsMatchOracle(t, "unchanged", l, a, b, twinA, twinB, 2)
	if l.snrGen != gen {
		t.Fatalf("table cleared (generation %d → %d) with no input changed", gen, l.snrGen)
	}

	steps := []struct {
		name   string
		change func()
	}{
		{"LOS blocked", func() { env.LOSBlocked = true }},
		{"LOS unblocked", func() { env.LOSBlocked = false }},
		{"LOS extra loss", func() { env.LOSExtraLossDB = 4.5 }},
		{"reflector appended", func() {
			env.Reflectors = append(env.Reflectors, channel.NewWallY("panel", 1.2, 2.0, 4.0, 0.6, 1.8, 6))
		}},
		{"reflector loss edited in place", func() { env.Reflectors[0].LossDB -= 3 }},
		{"reflector moved in place", func() { env.Reflectors[0].Center.Y -= 0.3 }},
		{"budget", func() { l.Budget.TxPowerDBm += 1.5 }},
	}
	for _, st := range steps {
		st.change()
		sum := checkSweepsMatchOracle(t, st.name, l, a, b, twinA, twinB, 2)
		if sum == prev {
			t.Fatalf("%s left every true SNR as it was; the step tests nothing", st.name)
		}
		prev = sum
	}
	// The reverse direction: other arrays, codebook, model and receive
	// weights, and the reverse paths.
	checkSweepsMatchOracle(t, "tx and rx swapped", l, b, a, twinB, twinA, 2)
	checkSweepsMatchOracle(t, "swapped back", l, a, b, twinA, twinB, 2)
}

// TestSweepDrawOrderPinned pins a digest of the readings of ten
// consecutive sweeps at one pose, recorded before the link kept a
// true-SNR table: the table must leave the measurement draws, their order
// and their inputs exactly as they were.
func TestSweepDrawOrderPinned(t *testing.T) {
	l, a, b := testPair(t, channel.ConferenceRoom(), 6)
	pose := a.Pose()
	pose.Yaw = 23
	a.SetPose(pose)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	slots := dot11ad.SweepSchedule()
	for s := 0; s < 10; s++ {
		if err := l.Sweep(a, b, slots); err != nil {
			t.Fatal(err)
		}
		for _, id := range sector.TalonTX() {
			m, ok := b.Firmware().SweepMeasurement(id)
			if !ok {
				m = radio.Measurement{SNR: math.NaN(), RSSI: math.NaN()}
			}
			put(m.SNR)
			put(m.RSSI)
		}
	}
	const want = uint64(0x4c1412bcc50173fb)
	if got := h.Sum64(); got != want {
		t.Fatalf("digest of 10 sweeps %#x, pinned %#x", got, want)
	}
}
