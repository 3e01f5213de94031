package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeIEEE80211)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2017, 12, 12, 10, 30, 0, 123456000, time.UTC)
	packets := [][]byte{
		{0x01, 0x02, 0x03},
		{},
		bytes.Repeat([]byte{0xaa}, 256),
	}
	for i, p := range packets {
		if err := w.WritePacket(ts.Add(time.Duration(i)*time.Millisecond), p); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeIEEE80211 {
		t.Fatalf("link type = %d", r.LinkType())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(packets) {
		t.Fatalf("records = %d", len(got))
	}
	for i, p := range got {
		if !bytes.Equal(p.Data, packets[i]) {
			t.Fatalf("record %d data mismatch", i)
		}
		if p.OrigLen != len(packets[i]) {
			t.Fatalf("record %d orig len = %d", i, p.OrigLen)
		}
		want := ts.Add(time.Duration(i) * time.Millisecond)
		if !p.Time.Equal(want) {
			t.Fatalf("record %d time %v, want %v", i, p.Time, want)
		}
	}
}

func TestGlobalHeaderLayout(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, LinkTypeUser0); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if len(hdr) != 24 {
		t.Fatalf("header length %d", len(hdr))
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != 0xa1b2c3d4 {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint16(hdr[4:6]) != 2 || binary.LittleEndian.Uint16(hdr[6:8]) != 4 {
		t.Fatal("bad version")
	}
	if binary.LittleEndian.Uint32(hdr[20:24]) != 147 {
		t.Fatal("bad link type")
	}
}

func TestReaderBigEndianAndNanos(t *testing.T) {
	// Hand-construct a big-endian nanosecond stream.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], 0xa1b23c4d)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], 105)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 1500000000)
	binary.BigEndian.PutUint32(rec[4:8], 42) // 42 ns
	binary.BigEndian.PutUint32(rec[8:12], 2)
	binary.BigEndian.PutUint32(rec[12:16], 2)
	buf.Write(rec)
	buf.Write([]byte{0xde, 0xad})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.Time.Unix() != 1500000000 || p.Time.Nanosecond() != 42 {
		t.Fatalf("timestamp = %v", p.Time)
	}
	if !bytes.Equal(p.Data, []byte{0xde, 0xad}) {
		t.Fatalf("data = %x", p.Data)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	bad := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Error("zero magic accepted")
	}
	// Truncated record body.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeIEEE80211)
	_ = w.WritePacket(time.Now(), []byte{1, 2, 3, 4})
	trunc := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated record: %v", err)
	}
}

func TestWriterRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeIEEE80211)
	if err := w.WritePacket(time.Now(), make([]byte, MaxSnapLen+1)); err == nil {
		t.Fatal("oversized packet accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, secOffsets []uint16) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, LinkTypeIEEE80211)
		if err != nil {
			return false
		}
		base := time.Unix(1700000000, 0).UTC()
		n := len(payloads)
		for i, p := range payloads {
			off := time.Duration(0)
			if i < len(secOffsets) {
				off = time.Duration(secOffsets[i]) * time.Second
			}
			if err := w.WritePacket(base.Add(off), p); err != nil {
				return false
			}
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i].Data, payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
