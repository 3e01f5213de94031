package wil

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/geom"
	"talon/internal/pcap"
)

// monitorSetup deploys the paper's three-device Table 1 experiment: AP
// and STA close together, a monitor capturing everything.
func monitorSetup(t testing.TB) (*Link, *Device, *Device, *Sniffer) {
	t.Helper()
	l, ap, sta := testPair(t, channel.AnechoicChamber(), 2)
	mon, err := NewDevice(Config{
		Name: "monitor",
		MAC:  dot11ad.MACAddr{0x02, 0, 0, 0, 0, 0xcc},
		Seed: 3,
		Pose: channel.Pose{Pos: geom.Point{X: 1, Y: 1.2, Z: 1.2}, Yaw: -90},
	})
	if err != nil {
		t.Fatal(err)
	}
	sniffer := l.AttachSniffer(mon)
	return l, ap, sta, sniffer
}

func TestSnifferCapturesSweep(t *testing.T) {
	l, ap, sta, sniffer := monitorSetup(t)
	if _, err := l.RunTXSS(ap, sta, dot11ad.SweepSchedule()); err != nil {
		t.Fatal(err)
	}
	caps := sniffer.Captures()
	if len(caps) < 15 {
		t.Fatalf("captured only %d frames", len(caps))
	}
	prev := caps[0].Time
	for _, c := range caps {
		if c.Frame == nil || c.Frame.Type != dot11ad.TypeSSW {
			t.Fatalf("unexpected capture %+v", c.Frame)
		}
		if c.Time < prev {
			t.Fatal("capture times not monotone")
		}
		prev = c.Time
	}
	// Virtual clock advanced by one sweep burst.
	if l.Now() < 30*dot11ad.SSWFrameTime {
		t.Fatalf("clock = %v", l.Now())
	}
}

func TestSnifferDoesNotCaptureItself(t *testing.T) {
	l, ap, _, _ := monitorSetup(t)
	self := l.AttachSniffer(ap)
	if err := l.TransmitBeaconBurst(ap); err != nil {
		t.Fatal(err)
	}
	if len(self.Captures()) != 0 {
		t.Fatal("device captured its own transmissions")
	}
}

func TestBeaconBurstReconstruction(t *testing.T) {
	l, ap, sta, sniffer := monitorSetup(t)
	// Several rounds so missed frames get filled in, as in the paper
	// ("we captured the sector IDs and the values of CDOWN").
	for i := 0; i < 8; i++ {
		if err := l.TransmitBeaconBurst(ap); err != nil {
			t.Fatal(err)
		}
		if _, err := l.RunTXSS(ap, sta, dot11ad.SweepSchedule()); err != nil {
			t.Fatal(err)
		}
	}
	beacon, sweep := dot11ad.ReconstructSchedules(sniffer.Frames())
	if beacon.Frames == 0 || sweep.Frames == 0 {
		t.Fatalf("frames: beacon %d sweep %d", beacon.Frames, sweep.Frames)
	}
	if beacon.Conflicts != 0 || sweep.Conflicts != 0 {
		t.Fatalf("conflicts: beacon %d sweep %d", beacon.Conflicts, sweep.Conflicts)
	}
	// The reconstruction must reproduce Table 1 for the slots it saw,
	// with at most a few weak-sector slots missing.
	correct, missed, wrong := beacon.MatchAgainst(dot11ad.BeaconSchedule())
	if wrong != 0 {
		t.Fatalf("beacon: %d wrong slots", wrong)
	}
	if correct < 28 {
		t.Fatalf("beacon: only %d/32 slots reconstructed (missed %d)", correct, missed)
	}
	correct, missed, wrong = sweep.MatchAgainst(dot11ad.SweepSchedule())
	if wrong != 0 {
		t.Fatalf("sweep: %d wrong slots", wrong)
	}
	if correct < 30 {
		t.Fatalf("sweep: only %d/34 slots reconstructed (missed %d)", correct, missed)
	}
}

func TestSnifferPCAPExport(t *testing.T) {
	l, ap, sta, sniffer := monitorSetup(t)
	if _, err := l.RunTXSS(ap, sta, dot11ad.SweepSchedule()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sniffer.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != len(sniffer.Captures()) {
		t.Fatalf("pcap has %d records, captured %d", len(pkts), len(sniffer.Captures()))
	}
	// Every record must decode back into the captured frame.
	for i, p := range pkts {
		f, err := dot11ad.DecodeFrame(p.Data)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if *f != *sniffer.Captures()[i].Frame {
			t.Fatalf("record %d decoded differently", i)
		}
	}
}

func TestSnifferReset(t *testing.T) {
	l, ap, _, sniffer := monitorSetup(t)
	if err := l.TransmitBeaconBurst(ap); err != nil {
		t.Fatal(err)
	}
	if len(sniffer.Captures()) == 0 {
		t.Fatal("nothing captured")
	}
	sniffer.Reset()
	if len(sniffer.Captures()) != 0 {
		t.Fatal("Reset kept captures")
	}
}

func TestReconstructIgnoresOtherFrames(t *testing.T) {
	fb := &dot11ad.Frame{Type: dot11ad.TypeSSWFeedback}
	beacon, sweep := dot11ad.ReconstructSchedules([]*dot11ad.Frame{fb, nil})
	if beacon.Frames != 0 || sweep.Frames != 0 {
		t.Fatal("non-SSW frames counted")
	}
}

// TestSnifferCapturePinned pins a seeded monitor capture in the multipath
// conference room — a beacon burst, then a full mutual SLS — by a SHA-256
// over every capture's time, SNR and RSSI bits and frame bytes. The digest
// was recorded when each capture still traced its rays through a
// one-shot ground-truth call; the sniffer's own geometry must reproduce
// it bit for bit.
func TestSnifferCapturePinned(t *testing.T) {
	l, ap, sta := testPair(t, channel.ConferenceRoom(), 4)
	mon, err := NewDevice(Config{
		Name: "monitor",
		MAC:  dot11ad.MACAddr{0x02, 0, 0, 0, 0, 0xcc},
		Seed: 3,
		Pose: channel.Pose{Pos: geom.Point{X: 2, Y: 1.5, Z: 1.2}, Yaw: -100},
	})
	if err != nil {
		t.Fatal(err)
	}
	sniffer := l.AttachSniffer(mon)
	if err := l.TransmitBeaconBurst(ap); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RunSLS(ap, sta, dot11ad.SweepSchedule(), dot11ad.SweepSchedule()); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, c := range sniffer.Captures() {
		for _, v := range []uint64{uint64(c.Time), math.Float64bits(c.Meas.SNR), math.Float64bits(c.Meas.RSSI), uint64(len(c.Raw))} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		h.Write(c.Raw)
	}
	const (
		wantCaptures = 75
		wantDigest   = "c2988c3854929a5d0cf6780a752a1ae74d56566e73a72d2519b9b04c09188150"
	)
	if n, d := len(sniffer.Captures()), hex.EncodeToString(h.Sum(nil)); n != wantCaptures || d != wantDigest {
		t.Fatalf("capture: %d frames, digest %s; want %d frames, digest %s", n, d, wantCaptures, wantDigest)
	}
}
