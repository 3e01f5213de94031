package wil

import (
	"fmt"
	"io"
	"time"

	"talon/internal/dot11ad"
	"talon/internal/pcap"
	"talon/internal/radio"
)

// Capture is one frame observed by a monitor-mode device.
type Capture struct {
	// Time is the virtual capture time on the link's clock.
	Time time.Duration
	// Raw is the frame's wire form.
	Raw []byte
	// Frame is the decoded frame.
	Frame *dot11ad.Frame
	// Meas is the monitor's own signal-strength measurement.
	Meas radio.Measurement
}

// Sniffer is a device operating in monitor mode: it receives on the
// quasi-omni sector and records every frame it can decode, like the third
// Talon running tcpdump in Section 4.1.
type Sniffer struct {
	dev      *Device
	captures []Capture
	geo      radio.Geometry // its own: deliver reads Link.geo after transmit
}

// AttachSniffer puts dev into monitor mode on the link. All subsequent
// transmissions are offered to it.
func (l *Link) AttachSniffer(dev *Device) *Sniffer {
	s := &Sniffer{dev: dev}
	l.sniffers = append(l.sniffers, s)
	return s
}

// Device returns the monitoring device.
func (s *Sniffer) Device() *Device { return s.dev }

// Captures returns the recorded frames in capture order. The returned
// slice must not be modified.
func (s *Sniffer) Captures() []Capture { return s.captures }

// Reset clears the capture buffer.
func (s *Sniffer) Reset() { s.captures = nil }

// Frames returns just the decoded frames.
func (s *Sniffer) Frames() []*dot11ad.Frame {
	out := make([]*dot11ad.Frame, len(s.captures))
	for i, c := range s.captures {
		out[i] = c.Frame
	}
	return out
}

// WritePCAP dumps the capture buffer as a pcap stream (IEEE 802.11 link
// type), readable by tcpdump and Wireshark.
func (s *Sniffer) WritePCAP(w io.Writer) error {
	pw, err := pcap.NewWriter(w, pcap.LinkTypeIEEE80211)
	if err != nil {
		return err
	}
	base := time.Unix(0, 0).UTC()
	for _, c := range s.captures {
		if err := pw.WritePacket(base.Add(c.Time), c.Raw); err != nil {
			return err
		}
	}
	return nil
}

// ErrNoCaptures marks an empty capture buffer.
var ErrNoCaptures = fmt.Errorf("wil: sniffer captured no frames")
