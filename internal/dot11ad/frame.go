package dot11ad

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"talon/internal/sector"
)

// MACAddr is an EUI-48 station address.
type MACAddr [6]byte

// String implements fmt.Stringer in the usual colon-hex form.
func (a MACAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// FrameType enumerates the DMG frames this package codes.
type FrameType uint8

const (
	// TypeSSW is a Sector Sweep frame (control frame extension).
	TypeSSW FrameType = iota + 1
	// TypeSSWFeedback closes the responder sweep from the initiator side.
	TypeSSWFeedback
	// TypeSSWAck acknowledges the SSW feedback.
	TypeSSWAck
	// TypeDMGBeacon is the beacon of a DMG BSS.
	TypeDMGBeacon
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case TypeSSW:
		return "SSW"
	case TypeSSWFeedback:
		return "SSW-Feedback"
	case TypeSSWAck:
		return "SSW-Ack"
	case TypeDMGBeacon:
		return "DMG-Beacon"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// frameControl builds the 2-byte IEEE 802.11 frame control for our frames:
// protocol version 0, type/subtype per frame kind. SSW/SSW-Feedback/SSW-Ack
// are control frame extensions (type 01, subtype 0110) with the extension
// subtype in bits 8-11; DMG beacons are extension frames (type 11).
func frameControl(t FrameType) (uint16, error) {
	const (
		typeControl   = 0b01
		typeExtension = 0b11
		subtypeCFE    = 0b0110
	)
	switch t {
	case TypeSSW:
		return typeControl<<2 | subtypeCFE<<4 | 0b1000<<8, nil
	case TypeSSWFeedback:
		return typeControl<<2 | subtypeCFE<<4 | 0b1001<<8, nil
	case TypeSSWAck:
		return typeControl<<2 | subtypeCFE<<4 | 0b1010<<8, nil
	case TypeDMGBeacon:
		return typeExtension<<2 | 0b0000<<4, nil
	}
	return 0, fmt.Errorf("dot11ad: unknown frame type %d", t)
}

func frameTypeFromControl(fc uint16) (FrameType, error) {
	if fc&0b11 != 0 {
		return 0, fmt.Errorf("dot11ad: unsupported protocol version %d", fc&0b11)
	}
	typ := fc >> 2 & 0b11
	subtype := fc >> 4 & 0b1111
	ext := fc >> 8 & 0b1111
	switch {
	case typ == 0b01 && subtype == 0b0110:
		switch ext {
		case 0b1000:
			return TypeSSW, nil
		case 0b1001:
			return TypeSSWFeedback, nil
		case 0b1010:
			return TypeSSWAck, nil
		}
		return 0, fmt.Errorf("dot11ad: unknown control frame extension %04b", ext)
	case typ == 0b11 && subtype == 0b0000:
		return TypeDMGBeacon, nil
	}
	return 0, fmt.Errorf("dot11ad: unknown type/subtype %02b/%04b", typ, subtype)
}

// Frame is a decoded DMG frame. SSW frames carry both the SSW field and an
// SSW Feedback field; SSW-Feedback and SSW-Ack frames carry only the
// feedback field; DMG beacons carry the SSW field and the beacon interval.
type Frame struct {
	Type     FrameType
	Duration uint16
	RA, TA   MACAddr
	SSW      SSWField
	Feedback SSWFeedbackField
	// BeaconIntervalTU is the beacon interval in time units (1024 µs),
	// present in DMG beacons only.
	BeaconIntervalTU uint16
}

const (
	headerLen = 2 + 2 + 6 + 6 // FC, duration, RA, TA
	fcsLen    = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyLen returns the body length for the frame type.
func bodyLen(t FrameType) (int, error) {
	switch t {
	case TypeSSW:
		return 3 + 3, nil
	case TypeSSWFeedback, TypeSSWAck:
		return 3, nil
	case TypeDMGBeacon:
		return 2 + 3, nil
	}
	return 0, fmt.Errorf("dot11ad: unknown frame type %d", t)
}

// maxFrameLen is the wire length of the longest frame this package codes
// (an SSW frame).
const maxFrameLen = headerLen + 3 + 3 + fcsLen

// Serialize encodes the frame into its wire form including the FCS.
func (f *Frame) Serialize() ([]byte, error) {
	return f.AppendBinary(make([]byte, 0, maxFrameLen))
}

// AppendBinary appends the frame's wire form, FCS included, to b
// (encoding.BinaryAppender). A sender reusing one buffer across frames
// passes buf[:0].
func (f *Frame) AppendBinary(b []byte) ([]byte, error) {
	fc, err := frameControl(f.Type)
	if err != nil {
		return nil, err
	}
	start := len(b)
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint16(hdr[0:2], fc)
	binary.LittleEndian.PutUint16(hdr[2:4], f.Duration)
	copy(hdr[4:10], f.RA[:])
	copy(hdr[10:16], f.TA[:])
	b = append(b, hdr[:]...)

	switch f.Type {
	case TypeSSW:
		ssw, err := f.SSW.Encode()
		if err != nil {
			return nil, err
		}
		fb, err := f.Feedback.Encode()
		if err != nil {
			return nil, err
		}
		b = append(b, ssw[:]...)
		b = append(b, fb[:]...)
	case TypeSSWFeedback, TypeSSWAck:
		fb, err := f.Feedback.Encode()
		if err != nil {
			return nil, err
		}
		b = append(b, fb[:]...)
	case TypeDMGBeacon:
		var bi [2]byte
		binary.LittleEndian.PutUint16(bi[:], f.BeaconIntervalTU)
		b = append(b, bi[:]...)
		ssw, err := f.SSW.Encode()
		if err != nil {
			return nil, err
		}
		b = append(b, ssw[:]...)
	}

	var fcs [fcsLen]byte
	binary.LittleEndian.PutUint32(fcs[:], crc32.Checksum(b[start:], castagnoli))
	return append(b, fcs[:]...), nil
}

// DecodeFrame parses a wire-form frame, verifying length and FCS.
func DecodeFrame(b []byte) (*Frame, error) {
	f := new(Frame)
	if err := f.UnmarshalBinary(b); err != nil {
		return nil, err
	}
	return f, nil
}

// UnmarshalBinary parses a wire-form frame into f, verifying length and
// FCS (encoding.BinaryUnmarshaler). Every field of f is overwritten on
// success; on error f is unchanged.
func (f *Frame) UnmarshalBinary(b []byte) error {
	if len(b) < headerLen+fcsLen {
		return fmt.Errorf("dot11ad: frame too short (%d bytes)", len(b))
	}
	payload, fcs := b[:len(b)-fcsLen], b[len(b)-fcsLen:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(fcs); got != want {
		return fmt.Errorf("dot11ad: FCS mismatch (got %08x want %08x)", got, want)
	}
	fc := binary.LittleEndian.Uint16(payload[0:2])
	t, err := frameTypeFromControl(fc)
	if err != nil {
		return err
	}
	bl, err := bodyLen(t)
	if err != nil {
		return err
	}
	if len(payload) != headerLen+bl {
		return fmt.Errorf("dot11ad: %v frame body length %d, want %d", t, len(payload)-headerLen, bl)
	}
	*f = Frame{Type: t, Duration: binary.LittleEndian.Uint16(payload[2:4])}
	copy(f.RA[:], payload[4:10])
	copy(f.TA[:], payload[10:16])
	body := payload[headerLen:]
	switch t {
	case TypeSSW:
		f.SSW = DecodeSSWField([3]byte(body[0:3]))
		f.Feedback = DecodeSSWFeedbackField([3]byte(body[3:6]))
	case TypeSSWFeedback, TypeSSWAck:
		f.Feedback = DecodeSSWFeedbackField([3]byte(body[0:3]))
	case TypeDMGBeacon:
		f.BeaconIntervalTU = binary.LittleEndian.Uint16(body[0:2])
		f.SSW = DecodeSSWField([3]byte(body[2:5]))
	}
	return nil
}

// NewSSWFrame builds a sector-sweep frame transmitted on sec with the given
// countdown and direction, carrying feedback fb.
func NewSSWFrame(ra, ta MACAddr, direction bool, cdown uint16, sec sector.ID, fb SSWFeedbackField) *Frame {
	return &Frame{
		Type: TypeSSW,
		RA:   ra,
		TA:   ta,
		SSW: SSWField{
			Direction: direction,
			CDOWN:     cdown,
			SectorID:  sec,
		},
		Feedback: fb,
	}
}
