// Package wil simulates the QCA9500 FullMAC IEEE 802.11ad chip of the
// Talon AD7200 at the fidelity the paper's experiments need: the stock
// sector-sweep handling (argmax on reported SNR), the Nexmon-style
// firmware patches that (a) dump per-sector RSSI/SNR measurements into a
// ring buffer readable from user space and (b) let user space overwrite
// the sector selection placed into SSW feedback fields, plus the WMI
// command interface the paper's modified wil6210 driver uses.
//
// The package name follows the Linux driver for this chip (wil6210).
package wil

import (
	"encoding/binary"
	"fmt"
	"math"

	"talon/internal/dot11ad"
	"talon/internal/fault"
	"talon/internal/nexmon"
	"talon/internal/radio"
	"talon/internal/sector"
)

// Patch names of the two firmware extensions from Section 3.
const (
	// PatchNameSweepDump is the ucode patch that copies RSSI/SNR of
	// received SSW frames into the host-readable ring buffer.
	PatchNameSweepDump = "ssw-dump"
	// PatchNameSectorOverride is the patch adding the user-space switch
	// that overwrites the sector ID in SSW feedback fields.
	PatchNameSectorOverride = "sector-override"
)

// Memory locations used by the patched firmware (host view, i.e. writable
// high aliases of Figure 1).
const (
	// patchCodeAddr is where the ucode patch body is placed: inside the
	// ucode code partition, reachable for writing only via its alias.
	patchCodeAddr = nexmon.UcodeCodeAlias + 0x16000
	// overrideCodeAddr hosts the feedback-override stub.
	overrideCodeAddr = nexmon.FwCodeAlias + 0x3500
	// forcedSectorAddr holds [valid, sectorID] in the fw data partition,
	// set through WMI.
	forcedSectorAddr = nexmon.FwDataAlias + 0x1040
	// ringHeaderAddr holds the uint32 LE total-records counter, followed
	// by the record array.
	ringHeaderAddr = nexmon.UcodeDataAlias + 0x0200
	ringBufferAddr = ringHeaderAddr + 8
)

// Ring buffer geometry.
const (
	// RingCapacity is the number of record slots; older records are
	// overwritten, as in the real patch.
	RingCapacity = 128
	recordLen    = 8
)

// SweepRecord is one decoded ring-buffer entry: the firmware's measurement
// of one received SSW frame.
type SweepRecord struct {
	// Seq is the monotonically increasing record number.
	Seq uint32
	// Sector is the transmitter's sector the frame was sent on.
	Sector sector.ID
	// CDOWN is the burst countdown of the frame.
	CDOWN uint16
	// SNR is the reported SNR in dB (quarter-dB grid, clamped).
	SNR float64
	// RSSI is the reported RSSI in dBm.
	RSSI float64
}

// Firmware is the chip state: memory, patch framework and the sweep
// tracking of the stock selection algorithm.
type Firmware struct {
	mem *nexmon.Memory
	fwk *nexmon.Framework

	// sweep holds the measurements of the currently received sweep,
	// indexed by the peer's sector, and recorded marks the sectors that
	// have one — the stock algorithm's working state.
	sweep    [256]radio.Measurement
	recorded [256]bool
	seq      uint32

	// ring is the dump ring (header, then the record slots) in chip
	// memory, located once. dumpOn caches SweepDumpEnabled for the
	// framework generation dumpGen, so a frame costs no patch lookup
	// until the installed patches change.
	ring    []byte
	dumpOn  bool
	dumpGen uint64

	// inj is the installed impairment layer (nil = unimpaired),
	// consulted for record drop storms and transient WMI failures.
	inj fault.Injector
}

// NewFirmware boots a stock firmware image.
func NewFirmware() *Firmware {
	mem := nexmon.NewQCA9500Memory()
	ring, err := mem.Span(ringHeaderAddr, ringBufferAddr-ringHeaderAddr+RingCapacity*recordLen)
	if err != nil {
		// The ring region is statically sized; a failure is a bug.
		panic(fmt.Sprintf("wil: ring region: %v", err))
	}
	fwk := nexmon.NewFramework(mem)
	return &Firmware{
		mem:     mem,
		fwk:     fwk,
		ring:    ring,
		dumpGen: fwk.Generation(),
	}
}

// SetInjector installs inj as the firmware's fault injector (nil
// clears). Link.SetInjector mirrors its injector here; set one directly
// only for firmware-level experiments without a link.
func (f *Firmware) SetInjector(inj fault.Injector) { f.inj = inj }

// Memory exposes the chip memory (the host's mmap view).
func (f *Firmware) Memory() *nexmon.Memory { return f.mem }

// Framework exposes the patching framework.
func (f *Firmware) Framework() *nexmon.Framework { return f.fwk }

// SweepDumpPatch returns the ucode patch enabling measurement extraction.
func SweepDumpPatch() nexmon.Patch {
	return nexmon.Patch{
		Name:        PatchNameSweepDump,
		Description: "extract RSSI/SNR of received SSW frames into a host-readable ring buffer",
		Addr:        patchCodeAddr,
		Data:        []byte("hook:rx-ssw->ring"),
	}
}

// SectorOverridePatch returns the patch enabling feedback overwriting.
func SectorOverridePatch() nexmon.Patch {
	return nexmon.Patch{
		Name:        PatchNameSectorOverride,
		Description: "switch selecting the SSW feedback sector: stock algorithm or user-space value",
		Addr:        overrideCodeAddr,
		Data:        []byte("hook:ssw-feedback->switch"),
	}
}

// ApplyPatch installs a patch.
func (f *Firmware) ApplyPatch(p nexmon.Patch) error { return f.fwk.Apply(p) }

// SweepDumpEnabled reports whether the extraction patch is installed.
func (f *Firmware) SweepDumpEnabled() bool { return f.fwk.Applied(PatchNameSweepDump) }

// OverrideEnabled reports whether the override patch is installed.
func (f *Firmware) OverrideEnabled() bool { return f.fwk.Applied(PatchNameSectorOverride) }

// BeginRXSweep resets the per-sweep measurement state when a new incoming
// sector sweep starts.
func (f *Firmware) BeginRXSweep() {
	clear(f.recorded[:])
}

// RecordSSW processes one decoded SSW frame received on the quasi-omni
// sector: the stock path updates the per-sector measurement table; the
// dump patch additionally appends a ring-buffer record.
func (f *Firmware) RecordSSW(sec sector.ID, cdown uint16, m radio.Measurement) {
	if fault.ApplyRecord(f.inj) {
		// A drop storm loses the frame's measurement entirely: neither
		// the stock sweep table nor the host-readable ring sees it.
		return
	}
	f.sweep[sec], f.recorded[sec] = m, true
	if g := f.fwk.Generation(); g != f.dumpGen {
		f.dumpOn, f.dumpGen = f.SweepDumpEnabled(), g
	}
	if !f.dumpOn {
		return
	}
	metRingRecords.Inc()
	if f.seq >= RingCapacity {
		// The slot about to be written still holds record seq-RingCapacity,
		// which the host can no longer read back: a drop.
		metRingOverflow.Inc()
		metRingOccupancy.Set(RingCapacity)
	} else {
		metRingOccupancy.Set(int64(f.seq) + 1)
	}
	slot := f.seq % RingCapacity
	rec := f.ring[ringBufferAddr-ringHeaderAddr+slot*recordLen:][:recordLen]
	binary.LittleEndian.PutUint16(rec[0:2], uint16(f.seq))
	rec[2] = byte(sec)
	rec[3] = dot11ad.EncodeSNR(m.SNR)
	rec[4] = byte(int8(clampF(math.Round(m.RSSI), -128, 127)))
	rec[5] = byte(cdown)
	rec[6] = 1 // valid
	rec[7] = 0
	f.seq++
	binary.LittleEndian.PutUint32(f.ring[0:4], f.seq)
}

// BestSector runs the stock selection: the probed sector with the highest
// reported SNR of the current sweep. ok is false when no frame of the
// sweep was decoded.
func (f *Firmware) BestSector() (sector.ID, bool) {
	best, bestSNR, ok := sector.ID(0), math.Inf(-1), false
	// Iterate deterministically so equal readings break ties stably.
	for _, id := range sector.TalonTX() {
		m, have := f.SweepMeasurement(id)
		if !have {
			continue
		}
		if m.SNR > bestSNR {
			best, bestSNR, ok = id, m.SNR, true
		}
	}
	return best, ok
}

// SweepMeasurement returns the current sweep's measurement of sector id,
// if one was recorded.
func (f *Firmware) SweepMeasurement(id sector.ID) (radio.Measurement, bool) {
	if !f.recorded[id] {
		return radio.Measurement{}, false
	}
	return f.sweep[id], true
}

// SweepMeasurements returns a copy of the current sweep's per-sector
// measurements (the stock algorithm's working state).
func (f *Firmware) SweepMeasurements() map[sector.ID]radio.Measurement {
	n := 0
	for _, ok := range f.recorded {
		if ok {
			n++
		}
	}
	out := make(map[sector.ID]radio.Measurement, n)
	for id, ok := range f.recorded {
		if ok {
			out[sector.ID(id)] = f.sweep[id]
		}
	}
	return out
}

// FeedbackSector returns the sector ID the firmware places into SSW
// feedback fields: the user-space override when the patch is installed and
// armed, otherwise the stock selection.
func (f *Firmware) FeedbackSector() (sector.ID, bool) {
	if f.OverrideEnabled() {
		if id, ok := f.forcedSector(); ok {
			return id, true
		}
	}
	return f.BestSector()
}

func (f *Firmware) forcedSector() (sector.ID, bool) {
	b, err := f.mem.Read(forcedSectorAddr, 2)
	if err != nil || b[0] == 0 {
		return 0, false
	}
	return sector.ID(b[1]), true
}

func clampF(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	}
	return v
}
