package dot11ad

import (
	"bytes"
	"testing"
	"testing/quick"

	"talon/internal/sector"
)

var (
	addrA = MACAddr{0x50, 0xc7, 0xbf, 0x01, 0x02, 0x03}
	addrB = MACAddr{0x50, 0xc7, 0xbf, 0x0a, 0x0b, 0x0c}
)

func roundTrip(t *testing.T, f *Frame) *Frame {
	t.Helper()
	b, err := f.Serialize()
	if err != nil {
		t.Fatalf("serialize %+v: %v", f, err)
	}
	got, err := DecodeFrame(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestSSWFrameRoundTrip(t *testing.T) {
	f := NewSSWFrame(addrA, addrB, DirectionResponder, 12, 27, SSWFeedbackField{
		SectorSelect: 8,
		SNRReport:    EncodeSNR(9.25),
	})
	f.Duration = 1000
	got := roundTrip(t, f)
	if *got != *f {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, f)
	}
}

func TestFeedbackAndAckRoundTrip(t *testing.T) {
	for _, typ := range []FrameType{TypeSSWFeedback, TypeSSWAck} {
		f := &Frame{
			Type:     typ,
			RA:       addrB,
			TA:       addrA,
			Feedback: SSWFeedbackField{SectorSelect: 20, SNRReport: 77, PollRequired: true},
		}
		got := roundTrip(t, f)
		if *got != *f {
			t.Fatalf("%v round trip mismatch", typ)
		}
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	f := &Frame{
		Type:             TypeDMGBeacon,
		RA:               MACAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		TA:               addrA,
		SSW:              SSWField{CDOWN: 33, SectorID: 63},
		BeaconIntervalTU: 100,
	}
	got := roundTrip(t, f)
	if *got != *f {
		t.Fatalf("beacon round trip mismatch: %+v", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	f := NewSSWFrame(addrA, addrB, DirectionInitiator, 5, 3, SSWFeedbackField{})
	b, err := f.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		corrupted := append([]byte(nil), b...)
		corrupted[i] ^= 0x40
		if _, err := DecodeFrame(corrupted); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

func TestDecodeRejectsShortAndTruncated(t *testing.T) {
	if _, err := DecodeFrame(nil); err == nil {
		t.Fatal("nil frame accepted")
	}
	if _, err := DecodeFrame(make([]byte, 10)); err == nil {
		t.Fatal("short frame accepted")
	}
	f := NewSSWFrame(addrA, addrB, false, 5, 3, SSWFeedbackField{})
	b, _ := f.Serialize()
	if _, err := DecodeFrame(b[:len(b)-3]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestSerializeValidation(t *testing.T) {
	f := &Frame{Type: TypeSSW, SSW: SSWField{SectorID: 64}}
	if _, err := f.Serialize(); err == nil {
		t.Fatal("invalid sector ID serialized")
	}
	f = &Frame{Type: FrameType(99)}
	if _, err := f.Serialize(); err == nil {
		t.Fatal("unknown frame type serialized")
	}
}

func TestFrameTypeStrings(t *testing.T) {
	for _, typ := range []FrameType{TypeSSW, TypeSSWFeedback, TypeSSWAck, TypeDMGBeacon} {
		if typ.String() == "" || bytes.Contains([]byte(typ.String()), []byte("FrameType(")) {
			t.Errorf("missing String for %d", typ)
		}
	}
	if FrameType(42).String() != "FrameType(42)" {
		t.Error("fallback String wrong")
	}
}

func TestMACAddrString(t *testing.T) {
	if got := addrA.String(); got != "50:c7:bf:01:02:03" {
		t.Fatalf("MACAddr.String() = %q", got)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(dir bool, cdown uint16, sec, sel, snr uint8, dur uint16) bool {
		in := NewSSWFrame(addrA, addrB, dir, cdown%(MaxCDOWN+1), sector.ID(sec%64), SSWFeedbackField{
			SectorSelect: sector.ID(sel % 64),
			SNRReport:    snr,
		})
		in.Duration = dur
		b, err := in.Serialize()
		if err != nil {
			return false
		}
		got, err := DecodeFrame(b)
		if err != nil {
			return false
		}
		return *got == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFrameBufferReuse drives the codec the way a sender and receiver
// reuse one buffer and one Frame across frames: AppendBinary after a
// prefix checksums only the appended frame, and UnmarshalBinary
// overwrites every field a previous, different frame left behind, and
// leaves the frame unchanged on a bad FCS.
func TestFrameBufferReuse(t *testing.T) {
	beacon := &Frame{Type: TypeDMGBeacon, RA: addrB, TA: addrA, BeaconIntervalTU: 100,
		SSW: SSWField{CDOWN: 3, SectorID: 9}}
	ssw := NewSSWFrame(addrA, addrB, DirectionInitiator, 7, 21, SSWFeedbackField{SectorSelect: 5, SNRReport: EncodeSNR(4)})
	ssw.Duration = 77

	prefix := []byte{0xde, 0xad}
	buf, err := ssw.AppendBinary(prefix)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ssw.Serialize()
	if !bytes.Equal(buf[:2], prefix) || !bytes.Equal(buf[2:], want) {
		t.Fatalf("AppendBinary after a prefix = % x, want % x + % x", buf, prefix, want)
	}

	var got Frame
	if err := got.UnmarshalBinary(buf[2:]); err != nil || got != *ssw {
		t.Fatalf("decode SSW: %+v, %v", got, err)
	}
	raw, err := beacon.AppendBinary(buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	if err := got.UnmarshalBinary(raw); err != nil || got != *beacon {
		t.Fatalf("decode beacon into a used frame: %+v, %v; want %+v", got, err, *beacon)
	}
	raw[len(raw)-1] ^= 0xff
	if err := got.UnmarshalBinary(raw); err == nil || got != *beacon {
		t.Fatalf("bad FCS: err %v, frame %+v changed", err, got)
	}
}
