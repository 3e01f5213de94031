package nexmon

import (
	"fmt"
	"sort"
)

// Patch is one firmware modification: bytes placed at a target address,
// written in C against the vendor blob in the real framework, reduced here
// to its observable effect on chip memory.
type Patch struct {
	// Name identifies the patch (e.g. "ssw-dump", "sector-override").
	Name string
	// Description says what the patch hooks.
	Description string
	// Addr is the placement address. Placing into a code partition
	// requires the high alias, as on the real chip.
	Addr uint32
	// Data is the patch payload.
	Data []byte
}

// Framework applies patches to a chip memory and tracks what is installed,
// mirroring the role of the Nexmon patching framework in the paper.
type Framework struct {
	mem     *Memory
	applied map[string]Patch
	gen     uint64
}

// NewFramework wraps mem.
func NewFramework(mem *Memory) *Framework {
	return &Framework{mem: mem, applied: make(map[string]Patch)}
}

// Memory returns the underlying chip memory.
func (f *Framework) Memory() *Memory { return f.mem }

// Apply validates and installs p. A patch name can only be installed once.
func (f *Framework) Apply(p Patch) error {
	if err := f.apply(p); err != nil {
		metPatchErrors.Inc()
		return err
	}
	metPatchesApplied.Inc()
	return nil
}

func (f *Framework) apply(p Patch) error {
	if p.Name == "" {
		return fmt.Errorf("nexmon: patch without name")
	}
	if _, dup := f.applied[p.Name]; dup {
		return fmt.Errorf("nexmon: patch %q already applied", p.Name)
	}
	if len(p.Data) == 0 {
		return fmt.Errorf("nexmon: patch %q has no payload", p.Name)
	}
	if err := f.mem.Write(p.Addr, p.Data); err != nil {
		return fmt.Errorf("nexmon: patch %q: %w", p.Name, err)
	}
	f.applied[p.Name] = p
	f.gen++
	return nil
}

// Generation counts the patches installed so far: it changes whenever
// the installed set does, so a caller can cache what it derived from
// Applied until then.
func (f *Framework) Generation() uint64 { return f.gen }

// Applied reports whether the named patch is installed.
func (f *Framework) Applied(name string) bool {
	_, ok := f.applied[name]
	return ok
}

// Patches lists installed patches sorted by name.
func (f *Framework) Patches() []Patch {
	out := make([]Patch, 0, len(f.applied))
	for _, p := range f.applied {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
