// Package nexmon models the firmware-patching side of the paper's research
// platform: the QCA9500's two ARC600 processors (ucode and firmware) each
// have a write-protected code partition and a writable data partition at
// low addresses, and all four regions are remapped to high addresses where
// they are writable and host-accessible (Figure 1 of the paper).
//
// Patches are written through the high aliases — exactly the trick the
// authors discovered to place merged code+data patches despite the
// write-protected low code regions.
package nexmon

import (
	"fmt"
	"sort"
)

// Memory layout of the simulated QCA9500 (addresses from Figure 1).
const (
	// Low (execution-view) regions.
	UcodeCodeBase = 0x00000000
	UcodeCodeSize = 0x00020000
	UcodeDataBase = 0x00020000
	UcodeDataSize = 0x00020000
	FwCodeBase    = 0x00080000
	FwCodeSize    = 0x00004000
	FwDataBase    = 0x00084000
	FwDataSize    = 0x00004000

	// High (host-view, writable) aliases.
	FwCodeAlias    = 0x008c0000
	FwDataAlias    = 0x00900000
	UcodeCodeAlias = 0x00920000
	UcodeDataAlias = 0x00940000
)

// region is one physical memory bank with its two mappings.
type region struct {
	name  string
	base  uint32 // low mapping
	alias uint32 // high mapping
	size  uint32
	lowRO bool // low mapping write-protected (code partitions)
	data  []byte
}

// Memory is the chip's address space as seen by the host and the two
// cores: four banks, each visible at a low and a high address.
type Memory struct {
	regions []*region
}

// NewQCA9500Memory builds the memory map of Figure 1 with zeroed banks.
func NewQCA9500Memory() *Memory {
	mk := func(name string, base, alias, size uint32, lowRO bool) *region {
		return &region{name: name, base: base, alias: alias, size: size, lowRO: lowRO, data: make([]byte, size)}
	}
	m := &Memory{regions: []*region{
		mk("ucode-code", UcodeCodeBase, UcodeCodeAlias, UcodeCodeSize, true),
		mk("ucode-data", UcodeDataBase, UcodeDataAlias, UcodeDataSize, false),
		mk("fw-code", FwCodeBase, FwCodeAlias, FwCodeSize, true),
		mk("fw-data", FwDataBase, FwDataAlias, FwDataSize, false),
	}}
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].base < m.regions[j].base })
	return m
}

// locate resolves addr to a region and offset, reporting whether the
// access went through the writable high alias.
func (m *Memory) locate(addr uint32) (r *region, off uint32, viaAlias bool, err error) {
	for _, reg := range m.regions {
		if addr >= reg.base && addr < reg.base+reg.size {
			return reg, addr - reg.base, false, nil
		}
		if addr >= reg.alias && addr < reg.alias+reg.size {
			return reg, addr - reg.alias, true, nil
		}
	}
	return nil, 0, false, fmt.Errorf("nexmon: address %#08x unmapped", addr)
}

// Read copies n bytes starting at addr. Reads may not cross region
// boundaries (matching how the real banks are accessed).
func (m *Memory) Read(addr uint32, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("nexmon: negative read length %d", n)
	}
	r, off, _, err := m.locate(addr)
	if err != nil {
		return nil, err
	}
	if off+uint32(n) > r.size {
		return nil, fmt.Errorf("nexmon: read of %d bytes at %#08x crosses %s boundary", n, addr, r.name)
	}
	out := make([]byte, n)
	copy(out, r.data[off:])
	return out, nil
}

// Write stores data starting at addr. Writes through a low code-partition
// address fail with ErrWriteProtected; the same bank accepts the write
// through its high alias.
func (m *Memory) Write(addr uint32, data []byte) error {
	r, off, viaAlias, err := m.locate(addr)
	if err != nil {
		return err
	}
	if off+uint32(len(data)) > r.size {
		return fmt.Errorf("nexmon: write of %d bytes at %#08x crosses %s boundary", len(data), addr, r.name)
	}
	if r.lowRO && !viaAlias {
		metWriteFaults.Inc()
		return fmt.Errorf("nexmon: %w: %s at %#08x (use alias %#08x)", ErrWriteProtected, r.name, addr, r.alias+off)
	}
	copy(r.data[off:], data)
	return nil
}

// Span returns the writable bytes [addr, addr+n) of one bank: the
// checks of Write, made once, for a caller that writes the same range
// many times. Writing into the span is writing through Write. The banks
// never move, so a span stays valid for the memory's lifetime.
func (m *Memory) Span(addr uint32, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("nexmon: negative span length %d", n)
	}
	r, off, viaAlias, err := m.locate(addr)
	if err != nil {
		return nil, err
	}
	if off+uint32(n) > r.size {
		return nil, fmt.Errorf("nexmon: span of %d bytes at %#08x crosses %s boundary", n, addr, r.name)
	}
	if r.lowRO && !viaAlias {
		return nil, fmt.Errorf("nexmon: %w: %s at %#08x (use alias %#08x)", ErrWriteProtected, r.name, addr, r.alias+off)
	}
	return r.data[off : off+uint32(n) : off+uint32(n)], nil
}

// ErrWriteProtected marks writes rejected by a low code mapping.
var ErrWriteProtected = fmt.Errorf("write-protected code region")

// AliasOf translates a low address into its writable high alias.
func (m *Memory) AliasOf(addr uint32) (uint32, error) {
	r, off, viaAlias, err := m.locate(addr)
	if err != nil {
		return 0, err
	}
	if viaAlias {
		return addr, nil
	}
	return r.alias + off, nil
}

// RegionName reports the bank an address belongs to, for diagnostics.
func (m *Memory) RegionName(addr uint32) (string, error) {
	r, _, _, err := m.locate(addr)
	if err != nil {
		return "", err
	}
	return r.name, nil
}
