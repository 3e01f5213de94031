package wil

// Failure-injection tests: the system's behaviour when the radio, the
// firmware or the environment misbehaves.

import (
	"math"
	"testing"

	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/geom"
	"talon/internal/radio"
	"talon/internal/sector"
)

// deadModel never decodes anything.
func deadModel() radio.MeasurementModel {
	m := radio.DefaultMeasurementModel()
	m.DecodeThresholdDB = 1e9
	return m
}

func TestSLSWithDeadReceiver(t *testing.T) {
	dead := deadModel()
	a, err := NewDevice(Config{Name: "a", MAC: dot11ad.MACAddr{2, 0, 0, 0, 1, 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDevice(Config{
		Name: "b", MAC: dot11ad.MACAddr{2, 0, 0, 0, 1, 2}, Seed: 2,
		Pose:  channel.Pose{Pos: geom.Point{X: 3, Z: 1.2}, Yaw: 180},
		Model: &dead,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLink(channel.AnechoicChamber(), a, b)
	slots := dot11ad.SweepSchedule()
	res, err := l.RunSLS(a, b, slots, slots)
	if err != nil {
		t.Fatal(err)
	}
	// The protocol must terminate cleanly with no selections on the
	// deaf side and no spurious completion flags.
	if res.InitiatorTXOK {
		t.Fatal("initiator got feedback from a deaf responder")
	}
	if res.FeedbackDelivered && res.ResponderTXOK {
		// The responder can still receive the feedback frame only if
		// its model decodes — it cannot here.
		t.Fatal("deaf responder decoded feedback")
	}
	if len(res.AtResponder) != 0 {
		t.Fatalf("deaf responder recorded %d measurements", len(res.AtResponder))
	}
}

func TestSLSFullyBlockedEnvironment(t *testing.T) {
	env := &channel.Environment{Name: "void", LOSBlocked: true}
	a, _ := NewDevice(Config{Name: "a", MAC: dot11ad.MACAddr{2, 0, 0, 0, 2, 1}, Seed: 1})
	b, _ := NewDevice(Config{Name: "b", MAC: dot11ad.MACAddr{2, 0, 0, 0, 2, 2}, Seed: 2,
		Pose: channel.Pose{Pos: geom.Point{X: 3, Z: 1.2}, Yaw: 180}})
	l := NewLink(env, a, b)
	slots := dot11ad.SweepSchedule()
	res, err := l.RunSLS(a, b, slots, slots)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDelivered != 0 {
		t.Fatalf("%d frames crossed a dead channel", res.FramesDelivered)
	}
	if res.InitiatorTXOK || res.ResponderTXOK {
		t.Fatal("training completed over a dead channel")
	}
	// True SNR reflects the dead channel.
	if snr := l.GroundTruth(a, b).SNR(63); !math.IsInf(snr, -1) {
		t.Fatalf("true SNR over dead channel = %v", snr)
	}
}

func TestRingBufferSurvivesHeavyOverflow(t *testing.T) {
	fw := jailbrokenFirmware(t)
	// 100× capacity: the ring must keep exactly the newest records and
	// never corrupt memory.
	total := RingCapacity * 100
	for i := 0; i < total; i++ {
		fw.RecordSSW(sector.ID(i%34+1), uint16(i%35), radio.Measurement{SNR: -7 + float64(i%76)*0.25, RSSI: -70})
	}
	recs, err := fw.ReadSweepDump()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != RingCapacity {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[len(recs)-1].Seq != uint32(total-1) {
		t.Fatalf("newest seq = %d, want %d", recs[len(recs)-1].Seq, total-1)
	}
}

func TestForcedSectorSurvivesSweeps(t *testing.T) {
	// The override must stay armed across many sweeps until cleared.
	fw := jailbrokenFirmware(t)
	if _, err := fw.HandleWMI(WMISetSweepSector, []byte{19}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		fw.BeginRXSweep()
		fw.RecordSSW(sector.ID(i%30+1), 0, radio.Measurement{SNR: 11})
		id, ok := fw.FeedbackSector()
		if !ok || id != 19 {
			t.Fatalf("sweep %d: override lost (%v, %v)", i, id, ok)
		}
	}
}

func TestDeliverCorruptedFrame(t *testing.T) {
	a, _ := NewDevice(Config{Name: "a", MAC: dot11ad.MACAddr{2, 0, 0, 0, 3, 1}, Seed: 1})
	b, _ := NewDevice(Config{Name: "b", MAC: dot11ad.MACAddr{2, 0, 0, 0, 3, 2}, Seed: 2,
		Pose: channel.Pose{Pos: geom.Point{X: 2, Z: 1.2}, Yaw: 180}})
	l := NewLink(channel.AnechoicChamber(), a, b)
	frame := dot11ad.NewSSWFrame(b.MAC(), a.MAC(), false, 3, 63, dot11ad.SSWFeedbackField{})
	raw, _ := frame.Serialize()
	raw[8] ^= 0xff // corrupt in flight
	for i := 0; i < 50; i++ {
		if _, _, ok := l.Deliver(a, b, 63, raw); ok {
			t.Fatal("corrupted frame delivered")
		}
	}
}

func TestWMIOnWrongPatchSet(t *testing.T) {
	// Only the dump patch applied: override WMI must still fail.
	fw := NewFirmware()
	if err := fw.ApplyPatch(SweepDumpPatch()); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.HandleWMI(WMISetSweepSector, []byte{5}); err == nil {
		t.Fatal("override accepted without its patch")
	}
	if _, err := fw.ReadSweepDump(); err != nil {
		t.Fatalf("dump should work: %v", err)
	}
	// Only the override patch applied: dump must fail.
	fw2 := NewFirmware()
	if err := fw2.ApplyPatch(SectorOverridePatch()); err != nil {
		t.Fatal(err)
	}
	if _, err := fw2.ReadSweepDump(); err == nil {
		t.Fatal("dump accepted without its patch")
	}
	if _, err := fw2.HandleWMI(WMISetSweepSector, []byte{5}); err != nil {
		t.Fatalf("override should work: %v", err)
	}
}

func TestDoubleJailbreakFails(t *testing.T) {
	d, _ := NewDevice(Config{Name: "d", Seed: 1})
	if err := d.Jailbreak(); err != nil {
		t.Fatal(err)
	}
	if err := d.Jailbreak(); err == nil {
		t.Fatal("second jailbreak succeeded (patches applied twice)")
	}
}
