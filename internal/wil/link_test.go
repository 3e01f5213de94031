package wil

import (
	"math"
	"testing"

	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/geom"
	"talon/internal/sector"
)

func testPair(t testing.TB, env *channel.Environment, dist float64) (*Link, *Device, *Device) {
	t.Helper()
	a, err := NewDevice(Config{
		Name: "initiator",
		MAC:  dot11ad.MACAddr{0x02, 0, 0, 0, 0, 0xaa},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDevice(Config{
		Name: "responder",
		MAC:  dot11ad.MACAddr{0x02, 0, 0, 0, 0, 0xbb},
		Seed: 2,
		Pose: channel.Pose{Pos: geom.Point{X: dist, Z: 1.2}, Yaw: 180},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPose(channel.Pose{Pos: geom.Point{Z: 1.2}})
	return NewLink(env, a, b), a, b
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice(Config{}); err == nil {
		t.Fatal("unnamed device accepted")
	}
}

func TestDeviceDeterminism(t *testing.T) {
	a1, _ := NewDevice(Config{Name: "x", Seed: 7})
	a2, _ := NewDevice(Config{Name: "x", Seed: 7})
	w, ok := a1.Codebook().Weights(63)
	if !ok {
		t.Fatal("sector 63 missing")
	}
	for az := -60.0; az <= 60; az += 10 {
		if a1.Array().Gain(w, az, 0) != a2.Array().Gain(w, az, 0) {
			t.Fatal("same seed, different device")
		}
	}
}

// TestTXGainUnknownSector checks that a sector absent from the codebook
// radiates nothing through the ground-truth path.
func TestTXGainUnknownSector(t *testing.T) {
	l, a, b := testPair(t, channel.AnechoicChamber(), 3)
	if _, ok := a.Codebook().Weights(40); ok {
		t.Fatal("undefined sector in the codebook")
	}
	if snr := l.GroundTruth(a, b).SNR(40); !math.IsInf(snr, -1) {
		t.Fatalf("undefined sector true SNR = %v, want -Inf", snr)
	}
}

func TestDeliverGoodLink(t *testing.T) {
	l, a, b := testPair(t, channel.AnechoicChamber(), 3)
	frame := dot11ad.NewSSWFrame(b.MAC(), a.MAC(), false, 10, 63, dot11ad.SSWFeedbackField{})
	raw, err := frame.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 50; i++ {
		if got, meas, ok := l.Deliver(a, b, 63, raw); ok {
			delivered++
			if got.SSW.SectorID != 63 {
				t.Fatal("frame corrupted in flight")
			}
			if meas.SNR < -7 || meas.SNR > 12 {
				t.Fatalf("measurement outside firmware window: %v", meas.SNR)
			}
		}
	}
	if delivered < 40 {
		t.Fatalf("boresight link delivered only %d/50", delivered)
	}
}

func TestDeliverWeakSectorMisses(t *testing.T) {
	// At 12 m the scrambled sector drops below decode sensitivity while
	// the boresight sector still decodes reliably.
	l, a, b := testPair(t, channel.AnechoicChamber(), 12)
	frame := dot11ad.NewSSWFrame(b.MAC(), a.MAC(), false, 10, 62, dot11ad.SSWFeedbackField{})
	raw, _ := frame.Serialize()
	// Sector 62 is one of the scrambled low-gain sectors; across many
	// tries it must miss clearly more often than the boresight sector.
	frame63 := dot11ad.NewSSWFrame(b.MAC(), a.MAC(), false, 10, 63, dot11ad.SSWFeedbackField{})
	raw63, _ := frame63.Serialize()
	miss62, miss63 := 0, 0
	for i := 0; i < 400; i++ {
		if _, _, ok := l.Deliver(a, b, 62, raw); !ok {
			miss62++
		}
		if _, _, ok := l.Deliver(a, b, 63, raw63); !ok {
			miss63++
		}
	}
	if miss62 < miss63+10 {
		t.Fatalf("weak sector missed %d/400 vs boresight %d/400", miss62, miss63)
	}
}

func TestTrueSNRGroundTruth(t *testing.T) {
	l, a, b := testPair(t, channel.AnechoicChamber(), 3)
	if snr := l.GroundTruth(a, b).SNR(63); snr < 10 {
		t.Fatalf("boresight true SNR = %v", snr)
	}
	if snr := l.GroundTruth(a, b).SNR(40); !math.IsInf(snr, -1) {
		t.Fatalf("undefined sector true SNR = %v", snr)
	}
}

func TestRunSLSFullSweep(t *testing.T) {
	l, a, b := testPair(t, channel.AnechoicChamber(), 3)
	slots := dot11ad.SweepSchedule()
	res, err := l.RunSLS(a, b, slots, slots)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InitiatorTXOK || !res.ResponderTXOK {
		t.Fatalf("training incomplete: %+v", res)
	}
	if !sector.IsTalonTX(res.InitiatorTX) || !sector.IsTalonTX(res.ResponderTX) {
		t.Fatalf("selected non-TX sectors: %v / %v", res.InitiatorTX, res.ResponderTX)
	}
	if res.FramesSent != 68 {
		t.Fatalf("frames sent = %d, want 68", res.FramesSent)
	}
	if res.FramesDelivered < 30 {
		t.Fatalf("frames delivered = %d", res.FramesDelivered)
	}
	if !res.FeedbackDelivered || !res.AckDelivered {
		t.Fatalf("handshake incomplete: %+v", res)
	}
	// Full mutual sweep airtime matches the paper's 1.27 ms.
	if got := res.Duration; got != dot11ad.MutualTrainingTime(34) {
		t.Fatalf("duration = %v", got)
	}
	// The firmware's selection is the exact argmax of what it measured.
	selMeas, ok := res.AtResponder[res.InitiatorTX]
	if !ok {
		t.Fatalf("selected sector %v has no measurement", res.InitiatorTX)
	}
	for id, m := range res.AtResponder {
		if m.SNR > selMeas.SNR {
			t.Fatalf("sector %v read %v dB > selected %v at %v dB", id, m.SNR, res.InitiatorTX, selMeas.SNR)
		}
	}
	// At 3 m several sectors saturate the 12 dB reporting ceiling, so the
	// argmax may tie onto a sector a few true-dB below the optimum — but
	// never onto a genuinely bad one.
	gt := l.GroundTruth(a, b)
	snr := gt.SNR(res.InitiatorTX)
	bestSNR := math.Inf(-1)
	for _, id := range sector.TalonTX() {
		if s := gt.SNR(id); s > bestSNR {
			bestSNR = s
		}
	}
	if bestSNR-snr > 9 {
		t.Fatalf("selected sector %v is %v dB below optimum", res.InitiatorTX, bestSNR-snr)
	}
}

func TestRunSLSSubSweep(t *testing.T) {
	l, a, b := testPair(t, channel.AnechoicChamber(), 3)
	probe := sector.NewSet(8, 12, 63, 20, 2, 24, 17, 7)
	slots := dot11ad.SubSweepSchedule(probe)
	res, err := l.RunSLS(a, b, slots, slots)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesSent != 16 {
		t.Fatalf("frames sent = %d", res.FramesSent)
	}
	if res.Duration != dot11ad.MutualTrainingTime(8) {
		t.Fatalf("duration = %v", res.Duration)
	}
	if res.InitiatorTXOK && !probe.Contains(res.InitiatorTX) {
		t.Fatalf("selected unprobed sector %v", res.InitiatorTX)
	}
}

func TestRunSLSWithForcedSector(t *testing.T) {
	l, a, b := testPair(t, channel.AnechoicChamber(), 3)
	if err := b.Jailbreak(); err != nil {
		t.Fatal(err)
	}
	if err := b.ForceSector(27); err != nil {
		t.Fatal(err)
	}
	slots := dot11ad.SweepSchedule()
	res, err := l.RunSLS(a, b, slots, slots)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InitiatorTXOK || res.InitiatorTX != 27 {
		t.Fatalf("forced feedback not applied: %+v", res)
	}
	// Clearing restores stock behaviour.
	if err := b.ClearForcedSector(); err != nil {
		t.Fatal(err)
	}
	res, err = l.RunSLS(a, b, slots, slots)
	if err != nil {
		t.Fatal(err)
	}
	if res.InitiatorTXOK && res.InitiatorTX == 27 {
		// 27 is a dual-lobe sector away from boresight; the stock argmax
		// should not pick it on a boresight link.
		t.Fatalf("override still in effect after clear")
	}
}

func TestRunTXSS(t *testing.T) {
	l, a, b := testPair(t, channel.AnechoicChamber(), 3)
	meas, err := l.RunTXSS(a, b, dot11ad.SweepSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if len(meas) < 10 {
		t.Fatalf("only %d sectors measured", len(meas))
	}
	for id := range meas {
		if !sector.IsTalonTX(id) {
			t.Fatalf("measurement for non-TX sector %v", id)
		}
	}
}

func TestJailbreakExposesDump(t *testing.T) {
	l, a, b := testPair(t, channel.AnechoicChamber(), 3)
	if err := b.Jailbreak(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RunTXSS(a, b, dot11ad.SweepSchedule()); err != nil {
		t.Fatal(err)
	}
	recs, err := b.SweepDump()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 10 {
		t.Fatalf("dump has %d records", len(recs))
	}
	seen := map[sector.ID]bool{}
	for _, r := range recs {
		seen[r.Sector] = true
		if r.SNR < -8 || r.SNR > 55.75 {
			t.Fatalf("record SNR out of encoding range: %v", r.SNR)
		}
	}
	if !seen[63] {
		t.Fatal("strong sector 63 missing from dump")
	}
}
