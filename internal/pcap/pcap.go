// Package pcap implements the classic libpcap capture file format used by
// tcpdump and Wireshark — the tooling the paper uses to analyze beacon
// and sector-sweep bursts in Section 4.1. The writer produces files any
// libpcap consumer can open; the reader accepts both byte orders and both
// the microsecond and nanosecond timestamp variants.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers of the classic format.
const (
	magicMicros = 0xa1b2c3d4
	magicNanos  = 0xa1b23c4d
)

// LinkType identifies the capture's link layer.
type LinkType uint32

// Link types relevant to this project.
const (
	// LinkTypeIEEE80211 is raw IEEE 802.11 (DLT 105).
	LinkTypeIEEE80211 LinkType = 105
	// LinkTypeUser0 (DLT 147) is reserved for private use.
	LinkTypeUser0 LinkType = 147
)

const (
	versionMajor = 2
	versionMinor = 4
	// MaxSnapLen is the snapshot length written to headers.
	MaxSnapLen = 65535
)

// Writer emits a pcap stream. Create with NewWriter, which writes the
// global header immediately.
type Writer struct {
	w        io.Writer
	linkType LinkType
}

// NewWriter writes the global header (microsecond timestamps, native
// little-endian) and returns the writer.
func NewWriter(w io.Writer, linkType LinkType) (*Writer, error) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], MaxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(linkType))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: global header: %w", err)
	}
	return &Writer{w: w, linkType: linkType}, nil
}

// WritePacket appends one record with the given capture timestamp.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	if len(data) > MaxSnapLen {
		return fmt.Errorf("pcap: packet of %d bytes exceeds snap length", len(data))
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(data)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: record body: %w", err)
	}
	return nil
}

// LinkType reports the stream's link type.
func (w *Writer) LinkType() LinkType { return w.linkType }

// Packet is one decoded capture record.
type Packet struct {
	// Time is the capture timestamp.
	Time time.Time
	// Data is the captured bytes (possibly truncated to SnapLen).
	Data []byte
	// OrigLen is the original on-air length.
	OrigLen int
}

// Reader parses a pcap stream.
type Reader struct {
	r        io.Reader
	order    binary.ByteOrder
	nanos    bool
	linkType LinkType
	snapLen  uint32
}

// NewReader parses the global header and returns the reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: global header: %w", err)
	}
	rd := &Reader{r: r}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == magicMicros:
		rd.order = binary.LittleEndian
	case magicLE == magicNanos:
		rd.order, rd.nanos = binary.LittleEndian, true
	case magicBE == magicMicros:
		rd.order = binary.BigEndian
	case magicBE == magicNanos:
		rd.order, rd.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("pcap: bad magic %#08x", magicLE)
	}
	if major := rd.order.Uint16(hdr[4:6]); major != versionMajor {
		return nil, fmt.Errorf("pcap: unsupported version %d", major)
	}
	rd.snapLen = rd.order.Uint32(hdr[16:20])
	if rd.snapLen == 0 || rd.snapLen > 1<<24 {
		return nil, fmt.Errorf("pcap: implausible snap length %d", rd.snapLen)
	}
	rd.linkType = LinkType(rd.order.Uint32(hdr[20:24]))
	return rd, nil
}

// LinkType reports the stream's link type.
func (r *Reader) LinkType() LinkType { return r.linkType }

// Next returns the next record, or io.EOF at the end of the stream.
func (r *Reader) Next() (Packet, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: record header: %w", err)
	}
	sec := r.order.Uint32(hdr[0:4])
	frac := r.order.Uint32(hdr[4:8])
	incl := r.order.Uint32(hdr[8:12])
	orig := r.order.Uint32(hdr[12:16])
	if incl > r.snapLen {
		return Packet{}, fmt.Errorf("pcap: record of %d bytes exceeds snap length %d", incl, r.snapLen)
	}
	data := make([]byte, incl)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, fmt.Errorf("pcap: record body: %w", err)
	}
	nanos := int64(frac) * 1000
	if r.nanos {
		nanos = int64(frac)
	}
	return Packet{
		Time:    time.Unix(int64(sec), nanos).UTC(),
		Data:    data,
		OrigLen: int(orig),
	}, nil
}

// ReadAll drains the stream.
func (r *Reader) ReadAll() ([]Packet, error) {
	var out []Packet
	for {
		p, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
