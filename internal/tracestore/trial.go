package tracestore

import (
	"encoding/binary"
	"fmt"
	"math"

	"talon/internal/sector"
)

// KindTrial tags campaign-trial shards.
const KindTrial uint16 = 1

// ProbeSample is one probed sector's outcome inside a Trial: the sector
// id, whether the firmware reported, and the float32-rounded SNR/RSSI
// readings. Readings are stored as float32 on purpose — record mode
// rounds through float32 before both writing and selecting, so a replay
// recomputes selections from bit-identical inputs.
type ProbeSample struct {
	Sector    sector.ID
	OK        bool
	SNR, RSSI float32
}

// Trial is one campaign trial: the hidden channel state, the probe
// vector observed under it, and the selection made at record time
// (replays recompute selections and compare against it).
type Trial struct {
	// Seed is the per-trial RNG seed; non-decreasing across a campaign.
	Seed uint64
	// Channel state: ground-truth arrival angles, distance and any
	// extra attenuation, plus the resulting true link SNR at the
	// reference sector gain.
	AzDeg, ElDeg float32
	DistM        float32
	AttenDB      float32
	LinkSNR      float32
	// Probes is the observed probe vector (fixed length per campaign).
	Probes []ProbeSample
	// Selection made at record time.
	SelSector   sector.ID
	SelFallback bool
	SelAzDeg    float32
	SelElDeg    float32
}

// TrialCodec encodes Trials with a fixed probe count M per campaign.
// The probe count is the file meta, so mixing campaigns with different
// M into one replay fails loudly at open time.
type TrialCodec struct {
	m int
}

// NewTrialCodec returns a codec for campaigns probing m sectors per
// trial.
func NewTrialCodec(m int) (*TrialCodec, error) {
	if m < 1 || m > 255 {
		return nil, fmt.Errorf("tracestore: probe count %d out of range [1,255]", m)
	}
	return &TrialCodec{m: m}, nil
}

// M returns the probes-per-trial this codec was built for.
func (c *TrialCodec) M() int { return c.m }

// Kind implements Codec.
func (c *TrialCodec) Kind() uint16 { return KindTrial }

// Meta implements Codec: two little-endian u16s, probe count and a
// reserved zero.
func (c *TrialCodec) Meta() []byte {
	meta := make([]byte, 4)
	binary.LittleEndian.PutUint16(meta, uint16(c.m))
	return meta
}

// CheckMeta implements Codec.
func (c *TrialCodec) CheckMeta(meta []byte) error {
	if len(meta) != 4 {
		return fmt.Errorf("%w: trial meta length %d", ErrKindMismatch, len(meta))
	}
	if m := int(binary.LittleEndian.Uint16(meta)); m != c.m {
		return fmt.Errorf("%w: file has %d probes per trial, codec expects %d", ErrKindMismatch, m, c.m)
	}
	return nil
}

// trialSize is the per-record byte cost: fixed scalars plus M probe
// tuples.
func (c *TrialCodec) trialSize() int { return 8 + 5*4 + c.m*(1+1+4+4) + 1 + 1 + 4 + 4 }

// AppendBlock implements Codec. Layout is column-major: each field's
// values for all n records are contiguous, which keeps decode
// branch-free, one tight loop per column.
func (c *TrialCodec) AppendBlock(buf []byte, recs []Trial) []byte {
	n := len(recs)
	off := len(buf)
	buf = append(buf, make([]byte, n*c.trialSize())...)
	b := buf[off:]

	p := 0
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[p:], r.Seed)
		p += 8
	}
	p = putF32Col(b, p, recs, func(r *Trial) float32 { return r.AzDeg })
	p = putF32Col(b, p, recs, func(r *Trial) float32 { return r.ElDeg })
	p = putF32Col(b, p, recs, func(r *Trial) float32 { return r.DistM })
	p = putF32Col(b, p, recs, func(r *Trial) float32 { return r.AttenDB })
	p = putF32Col(b, p, recs, func(r *Trial) float32 { return r.LinkSNR })
	for _, r := range recs {
		for j := 0; j < c.m; j++ {
			b[p] = byte(r.Probes[j].Sector)
			p++
		}
	}
	for _, r := range recs {
		for j := 0; j < c.m; j++ {
			if r.Probes[j].OK {
				b[p] = 1
			}
			p++
		}
	}
	for _, r := range recs {
		for j := 0; j < c.m; j++ {
			binary.LittleEndian.PutUint32(b[p:], math.Float32bits(r.Probes[j].SNR))
			p += 4
		}
	}
	for _, r := range recs {
		for j := 0; j < c.m; j++ {
			binary.LittleEndian.PutUint32(b[p:], math.Float32bits(r.Probes[j].RSSI))
			p += 4
		}
	}
	for _, r := range recs {
		b[p] = byte(r.SelSector)
		p++
	}
	for _, r := range recs {
		if r.SelFallback {
			b[p] = 1
		}
		p++
	}
	p = putF32Col(b, p, recs, func(r *Trial) float32 { return r.SelAzDeg })
	putF32Col(b, p, recs, func(r *Trial) float32 { return r.SelElDeg })
	return buf
}

func putF32Col(b []byte, p int, recs []Trial, get func(*Trial) float32) int {
	for i := range recs {
		binary.LittleEndian.PutUint32(b[p:], math.Float32bits(get(&recs[i])))
		p += 4
	}
	return p
}

// DecodeBlock implements Codec. dst's capacity — including each Trial's
// Probes backing array — is reused, so a steady-state reader allocates
// nothing per block.
func (c *TrialCodec) DecodeBlock(raw []byte, n int, dst []Trial) ([]Trial, error) {
	if len(raw) != n*c.trialSize() {
		return nil, fmt.Errorf("%w: block holds %d bytes, %d records of %d need %d",
			ErrCorrupt, len(raw), n, c.trialSize(), n*c.trialSize())
	}
	if cap(dst) < n {
		dst = make([]Trial, n)
		probes := make([]ProbeSample, n*c.m)
		for i := range dst {
			dst[i].Probes = probes[i*c.m : (i+1)*c.m : (i+1)*c.m]
		}
	}
	dst = dst[:n]
	for i := range dst {
		if len(dst[i].Probes) != c.m {
			// Mixed-capacity reuse (e.g. dst from another codec): give
			// the record its own probe slice.
			dst[i].Probes = make([]ProbeSample, c.m)
		}
	}

	p := 0
	for i := range dst {
		dst[i].Seed = binary.LittleEndian.Uint64(raw[p:])
		p += 8
	}
	p = getF32Col(raw, p, dst, func(r *Trial, v float32) { r.AzDeg = v })
	p = getF32Col(raw, p, dst, func(r *Trial, v float32) { r.ElDeg = v })
	p = getF32Col(raw, p, dst, func(r *Trial, v float32) { r.DistM = v })
	p = getF32Col(raw, p, dst, func(r *Trial, v float32) { r.AttenDB = v })
	p = getF32Col(raw, p, dst, func(r *Trial, v float32) { r.LinkSNR = v })
	for i := range dst {
		for j := 0; j < c.m; j++ {
			dst[i].Probes[j].Sector = sector.ID(raw[p])
			p++
		}
	}
	for i := range dst {
		for j := 0; j < c.m; j++ {
			dst[i].Probes[j].OK = raw[p] != 0
			p++
		}
	}
	for i := range dst {
		for j := 0; j < c.m; j++ {
			dst[i].Probes[j].SNR = math.Float32frombits(binary.LittleEndian.Uint32(raw[p:]))
			p += 4
		}
	}
	for i := range dst {
		for j := 0; j < c.m; j++ {
			dst[i].Probes[j].RSSI = math.Float32frombits(binary.LittleEndian.Uint32(raw[p:]))
			p += 4
		}
	}
	for i := range dst {
		dst[i].SelSector = sector.ID(raw[p])
		p++
	}
	for i := range dst {
		dst[i].SelFallback = raw[p] != 0
		p++
	}
	p = getF32Col(raw, p, dst, func(r *Trial, v float32) { r.SelAzDeg = v })
	getF32Col(raw, p, dst, func(r *Trial, v float32) { r.SelElDeg = v })
	return dst, nil
}

func getF32Col(raw []byte, p int, dst []Trial, set func(*Trial, float32)) int {
	for i := range dst {
		set(&dst[i], math.Float32frombits(binary.LittleEndian.Uint32(raw[p:])))
		p += 4
	}
	return p
}
