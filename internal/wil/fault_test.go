package wil

import (
	"errors"
	"testing"

	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/fault"
	"talon/internal/geom"
	"talon/internal/radio"
)

// TestTransmitUnknownSectorCountsDrop is the regression test for the
// silently-swallowed unknown-sector failure in Link.transmit: with a sniffer
// attached, a frame on an unknown sector must tick the dropped-frames
// counter instead of vanishing without a trace. Counters are
// process-global, so the test works on deltas.
func TestTransmitUnknownSectorCountsDrop(t *testing.T) {
	link, a, _ := testPair(t, channel.AnechoicChamber(), 3)
	mon, err := NewDevice(Config{
		Name: "monitor",
		MAC:  dot11ad.MACAddr{0x02, 0, 0, 0, 0, 0xcc},
		Seed: 3,
		Pose: channel.Pose{Pos: geom.Point{X: 1.5, Y: 1, Z: 1.2}, Yaw: -90},
	})
	if err != nil {
		t.Fatal(err)
	}
	link.AttachSniffer(mon)

	frame := dot11ad.NewSSWFrame(mon.MAC(), a.MAC(), dot11ad.DirectionInitiator, 0, 40, dot11ad.SSWFeedbackField{})
	raw, err := frame.Serialize()
	if err != nil {
		t.Fatal(err)
	}

	injected0 := metFramesInjected.Value()
	dropped0 := metFramesDropped.Value()
	link.transmit(a, 40, raw, dot11ad.SSWFrameTime) // sector 40 is not in the codebook
	if got := metFramesInjected.Value() - injected0; got != 1 {
		t.Fatalf("injected delta = %d, want 1", got)
	}
	if got := metFramesDropped.Value() - dropped0; got != 1 {
		t.Fatalf("dropped delta = %d, want 1 (an unknown sector must count as a drop)", got)
	}

	// A deliverable sector must not tick the dropped counter on this path.
	good := dot11ad.NewSSWFrame(mon.MAC(), a.MAC(), dot11ad.DirectionInitiator, 0, 1, dot11ad.SSWFeedbackField{})
	rawGood, err := good.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	dropped1 := metFramesDropped.Value()
	link.transmit(a, 1, rawGood, dot11ad.SSWFrameTime)
	if got := metFramesDropped.Value() - dropped1; got != 0 {
		t.Fatalf("dropped delta = %d on a valid sector, want 0", got)
	}
}

func TestInjectorDropsFrames(t *testing.T) {
	link, a, b := testPair(t, channel.AnechoicChamber(), 3)
	link.SetInjector(fault.NewBernoulli(1, 1)) // lose everything
	meas, err := link.RunTXSS(a, b, dot11ad.SweepSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if len(meas) != 0 {
		t.Fatalf("fully lossy channel reported %d measurements", len(meas))
	}
	// Clearing the injector restores the link.
	link.SetInjector(nil)
	meas, err = link.RunTXSS(a, b, dot11ad.SweepSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if len(meas) == 0 {
		t.Fatal("no measurements after clearing the injector")
	}
}

func TestInjectorPerturbsMeasurements(t *testing.T) {
	base, a, b := testPair(t, channel.AnechoicChamber(), 3)
	clean, err := base.RunTXSS(a, b, dot11ad.SweepSchedule())
	if err != nil {
		t.Fatal(err)
	}

	link, a2, b2 := testPair(t, channel.AnechoicChamber(), 3)
	link.SetInjector(fault.RSSIBias{BiasDB: 5})
	biased, err := link.RunTXSS(a2, b2, dot11ad.SweepSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if len(biased) != len(clean) {
		t.Fatalf("bias-only injector changed delivery: %d vs %d", len(biased), len(clean))
	}
	for id, m := range biased {
		want := clean[id].RSSI + 5
		if m.RSSI != want {
			t.Fatalf("sector %v RSSI = %v, want %v", id, m.RSSI, want)
		}
		if m.SNR != clean[id].SNR {
			t.Fatalf("sector %v SNR perturbed by RSSI bias", id)
		}
	}
}

func TestInjectorMirroredIntoFirmware(t *testing.T) {
	link, a, b := testPair(t, channel.AnechoicChamber(), 3)
	inj := fault.Chain{
		&fault.RecordStorm{Period: 1, Burst: 1}, // drop every record
		fault.NewWMIFlake(1, 2),                 // fail every WMI command
	}
	link.SetInjector(inj)

	// Record path: the firmware loses every measurement.
	b.Firmware().BeginRXSweep()
	b.Firmware().RecordSSW(5, 0, radio.Measurement{SNR: 10, RSSI: -55})
	if got := b.Firmware().SweepMeasurements(); len(got) != 0 {
		t.Fatalf("record storm leaked %d measurements", len(got))
	}

	// WMI path: commands fail transiently with the injected sentinel.
	_, err := a.Firmware().HandleWMI(WMISetSweepSector, []byte{5})
	if err == nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("WMI err = %v, want wrap of fault.ErrInjected", err)
	}
	if errors.Is(err, ErrNotJailbroken) {
		t.Fatal("injected WMI fault must not read as a missing patch")
	}

	// Clearing the link clears the firmware too.
	link.SetInjector(nil)
	b.Firmware().BeginRXSweep()
	b.Firmware().RecordSSW(5, 0, radio.Measurement{SNR: 10, RSSI: -55})
	if got := b.Firmware().SweepMeasurements(); len(got) != 1 {
		t.Fatalf("cleared injector still dropping records (%d kept)", len(got))
	}
}

func TestInjectorStaleFeedbackCorruptsSLS(t *testing.T) {
	link, a, b := testPair(t, channel.AnechoicChamber(), 3)
	link.SetInjector(fault.NewStaleFeedback(1, 4))
	slots := dot11ad.SweepSchedule()
	res, err := link.RunSLS(a, b, slots, slots)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep still completes; the protocol-level outcome may differ,
	// but the frames must keep flowing.
	if res.FramesDelivered == 0 {
		t.Fatal("stale feedback must not lose frames")
	}
}

func TestWaitAdvancesClock(t *testing.T) {
	link, _, _ := testPair(t, channel.AnechoicChamber(), 3)
	t0 := link.Now()
	link.Wait(100)
	if link.Now() != t0+100 {
		t.Fatalf("clock = %v, want %v", link.Now(), t0+100)
	}
	link.Wait(-5)
	if link.Now() != t0+100 {
		t.Fatal("negative wait moved the clock")
	}
}
