package wil

import (
	"math"
	"testing"

	"talon/internal/dot11ad"
	"talon/internal/radio"
	"talon/internal/sector"
)

func TestStockFirmwareHidesMeasurements(t *testing.T) {
	fw := NewFirmware()
	fw.RecordSSW(5, 30, radio.Measurement{SNR: 8, RSSI: -60})
	if _, err := fw.ReadSweepDump(); err == nil {
		t.Fatal("stock firmware exposed the sweep dump")
	}
	if _, err := fw.HandleWMI(WMISetSweepSector, []byte{5}); err == nil {
		t.Fatal("stock firmware accepted the override WMI")
	}
	if _, err := fw.HandleWMI(WMIGetSweepSeq, nil); err == nil {
		t.Fatal("stock firmware answered the sweep-seq WMI")
	}
}

func jailbrokenFirmware(t *testing.T) *Firmware {
	t.Helper()
	fw := NewFirmware()
	if err := fw.ApplyPatch(SweepDumpPatch()); err != nil {
		t.Fatal(err)
	}
	if err := fw.ApplyPatch(SectorOverridePatch()); err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestSweepDumpRecords(t *testing.T) {
	fw := jailbrokenFirmware(t)
	fw.RecordSSW(7, 28, radio.Measurement{SNR: 9.25, RSSI: -58})
	fw.RecordSSW(61, 2, radio.Measurement{SNR: -3.5, RSSI: -70})
	recs, err := fw.ReadSweepDump()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	r0 := recs[0]
	if r0.Sector != 7 || r0.CDOWN != 28 || r0.SNR != 9.25 || r0.RSSI != -58 {
		t.Fatalf("record 0 = %+v", r0)
	}
	if recs[1].Sector != 61 || recs[1].Seq != 1 {
		t.Fatalf("record 1 = %+v", recs[1])
	}
}

func TestSweepDumpRingWraps(t *testing.T) {
	fw := jailbrokenFirmware(t)
	total := RingCapacity + 17
	for i := 0; i < total; i++ {
		fw.RecordSSW(sector.ID(i%34+1), uint16(i%35), radio.Measurement{SNR: float64(i%20) - 7, RSSI: -60})
	}
	recs, err := fw.ReadSweepDump()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != RingCapacity {
		t.Fatalf("records = %d, want %d", len(recs), RingCapacity)
	}
	if recs[0].Seq != uint32(total-RingCapacity) {
		t.Fatalf("oldest seq = %d", recs[0].Seq)
	}
	if recs[len(recs)-1].Seq != uint32(total-1) {
		t.Fatalf("newest seq = %d", recs[len(recs)-1].Seq)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatal("sequence numbers not contiguous")
		}
	}
}

// TestSweepDumpRingBytes pins the ring's raw bytes: frames recorded
// before the dump patch write nothing; the patch, installed mid-sweep
// straight through the framework, takes effect on the next frame; and
// after a wrap the header and every slot hold exactly the records the
// Memory.Write path produced (little-endian seq, sector, SNR code,
// clamped RSSI, CDOWN, valid flag, zero pad).
func TestSweepDumpRingBytes(t *testing.T) {
	fw := NewFirmware()
	size := ringBufferAddr - ringHeaderAddr + RingCapacity*recordLen
	want := make([]byte, size)
	check := func(label string) {
		t.Helper()
		got, err := fw.Memory().Read(ringHeaderAddr, size)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: ring byte %d = %#x, want %#x", label, i, got[i], want[i])
			}
		}
	}
	fw.BeginRXSweep()
	fw.RecordSSW(9, 30, radio.Measurement{SNR: 5, RSSI: -61})
	check("stock firmware")
	if err := fw.Framework().Apply(SweepDumpPatch()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < RingCapacity+5; i++ {
		sec, cdown := sector.ID(i%34+1), uint16(i%35)
		m := radio.Measurement{SNR: float64(i%23) - 8.25, RSSI: float64(i%300) - 200}
		fw.RecordSSW(sec, cdown, m)
		rec := want[ringBufferAddr-ringHeaderAddr+(i%RingCapacity)*recordLen:][:recordLen]
		rec[0], rec[1] = byte(i), byte(i>>8)
		rec[2], rec[3] = byte(sec), dot11ad.EncodeSNR(m.SNR)
		rec[4], rec[5], rec[6], rec[7] = byte(int8(clampF(math.Round(m.RSSI), -128, 127))), byte(cdown), 1, 0
		want[0], want[1], want[2], want[3] = byte(i+1), byte((i+1)>>8), 0, 0
	}
	check("after the wrap")
}

func TestBestSector(t *testing.T) {
	fw := NewFirmware()
	if _, ok := fw.BestSector(); ok {
		t.Fatal("BestSector on empty sweep")
	}
	fw.RecordSSW(3, 32, radio.Measurement{SNR: 4})
	fw.RecordSSW(17, 18, radio.Measurement{SNR: 11.75})
	fw.RecordSSW(24, 11, radio.Measurement{SNR: 7})
	id, ok := fw.BestSector()
	if !ok || id != 17 {
		t.Fatalf("BestSector = %v, %v", id, ok)
	}
	// A new sweep clears the state.
	fw.BeginRXSweep()
	if _, ok := fw.BestSector(); ok {
		t.Fatal("BeginRXSweep did not clear measurements")
	}
}

func TestFeedbackSectorOverride(t *testing.T) {
	fw := jailbrokenFirmware(t)
	fw.RecordSSW(17, 18, radio.Measurement{SNR: 11.75})
	// Without the override armed: stock selection.
	id, ok := fw.FeedbackSector()
	if !ok || id != 17 {
		t.Fatalf("stock feedback = %v, %v", id, ok)
	}
	// Arm the override.
	if _, err := fw.HandleWMI(WMISetSweepSector, []byte{29}); err != nil {
		t.Fatal(err)
	}
	id, ok = fw.FeedbackSector()
	if !ok || id != 29 {
		t.Fatalf("forced feedback = %v, %v", id, ok)
	}
	// Disarm again.
	if _, err := fw.HandleWMI(WMIClearSweepSector, nil); err != nil {
		t.Fatal(err)
	}
	id, ok = fw.FeedbackSector()
	if !ok || id != 17 {
		t.Fatalf("cleared feedback = %v, %v", id, ok)
	}
}

func TestWMIValidation(t *testing.T) {
	fw := jailbrokenFirmware(t)
	if _, err := fw.HandleWMI(WMISetSweepSector, nil); err == nil {
		t.Error("missing payload accepted")
	}
	if _, err := fw.HandleWMI(WMISetSweepSector, []byte{64}); err == nil {
		t.Error("invalid sector accepted")
	}
	if _, err := fw.HandleWMI(WMICommandID(0xffff), nil); err == nil {
		t.Error("unknown command accepted")
	}
}

func TestWMIGetSweepSeq(t *testing.T) {
	fw := jailbrokenFirmware(t)
	reply, err := fw.HandleWMI(WMIGetSweepSeq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != 4 || reply[0] != 0 {
		t.Fatalf("initial seq reply = %v", reply)
	}
	fw.RecordSSW(1, 34, radio.Measurement{SNR: 1})
	fw.RecordSSW(2, 33, radio.Measurement{SNR: 2})
	reply, err = fw.HandleWMI(WMIGetSweepSeq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply[0] != 2 {
		t.Fatalf("seq after 2 records = %v", reply)
	}
}

func TestRecordRSSIClamped(t *testing.T) {
	fw := jailbrokenFirmware(t)
	fw.RecordSSW(1, 0, radio.Measurement{SNR: 0, RSSI: -300})
	fw.RecordSSW(2, 0, radio.Measurement{SNR: 0, RSSI: 400})
	recs, err := fw.ReadSweepDump()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].RSSI != -128 || recs[1].RSSI != 127 {
		t.Fatalf("RSSI clamp: %v %v", recs[0].RSSI, recs[1].RSSI)
	}
	if math.IsNaN(recs[0].SNR) {
		t.Fatal("SNR NaN after decode")
	}
}
