package pattern

import (
	"fmt"
	"sort"
	"sync/atomic"

	"talon/internal/geom"
	"talon/internal/sector"
)

// Set maps sector IDs to their measured patterns. All patterns in a set
// share one grid. A Set is the "codebook knowledge" the compressive
// selection algorithm consumes.
//
// Lookups (BestSector, Index) go through an Index compiled on
// first use and dropped by Put, so a pattern must not be modified in place
// once its set has served a lookup: Put a replacement instead.
type Set struct {
	patterns map[sector.ID]*Pattern
	// index memoizes Index(); nil until the first lookup after a Put.
	index atomic.Pointer[Index]
}

// NewSet returns an empty pattern set.
func NewSet() *Set { return &Set{patterns: make(map[sector.ID]*Pattern)} }

// Put stores the pattern for id, replacing any previous one. The first
// pattern fixes the grid; later patterns must share it.
func (s *Set) Put(id sector.ID, p *Pattern) error {
	if p == nil {
		return fmt.Errorf("pattern: nil pattern for sector %v", id)
	}
	if len(s.patterns) > 0 {
		if g := s.anyPattern().grid; !g.Equal(p.grid) {
			return fmt.Errorf("pattern: sector %v grid differs from set grid", id)
		}
	}
	s.patterns[id] = p
	s.index.Store(nil)
	return nil
}

// Index returns the set compiled for direction lookups. It is built once,
// on first use after the last Put, and is safe for concurrent use.
func (s *Set) Index() *Index {
	if ix := s.index.Load(); ix != nil {
		return ix
	}
	ix := compileIndex(s)
	if s.index.CompareAndSwap(nil, ix) {
		return ix
	}
	return s.index.Load()
}

func (s *Set) anyPattern() *Pattern {
	for _, p := range s.patterns {
		return p
	}
	return nil
}

// Get returns the pattern for id, or nil if absent.
func (s *Set) Get(id sector.ID) *Pattern { return s.patterns[id] }

// Grid returns the sampling grid shared by every pattern in the set, or
// nil when the set is empty.
func (s *Set) Grid() *geom.Grid {
	if p := s.anyPattern(); p != nil {
		return p.grid
	}
	return nil
}

// Len returns the number of stored patterns.
func (s *Set) Len() int { return len(s.patterns) }

// IDs returns the stored sector IDs in ascending numeric order.
func (s *Set) IDs() []sector.ID {
	out := make([]sector.ID, 0, len(s.patterns))
	for id := range s.patterns {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TXIDs returns the stored transmit sector IDs (everything except the RX
// pseudo-sector), ascending.
func (s *Set) TXIDs() []sector.ID {
	out := make([]sector.ID, 0, len(s.patterns))
	for id := range s.patterns {
		if id != sector.RX {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MeanPeakGain returns the mean of the TX patterns' peak gains, summed
// in TXIDs order: the link-budget anchor that lets a reference SNR mean
// "an average sector, on boresight". NaN when the set has no TX pattern.
func (s *Set) MeanPeakGain() float64 {
	ids := s.TXIDs()
	sum := 0.0
	for _, id := range ids {
		_, _, peak := s.patterns[id].Peak()
		sum += peak
	}
	return sum / float64(len(ids))
}

// BestSector returns the stored transmit sector whose pattern has the
// highest gain toward (az, el), implementing Eq. 4 of the paper, along with
// that gain. It returns (sector.RX, NaN) if the set holds no usable TX
// pattern.
func (s *Set) BestSector(az, el float64) (sector.ID, float64) {
	ix := s.Index()
	return ix.BestSector(ix.Locate(az, el))
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := NewSet()
	for id, p := range s.patterns {
		out.patterns[id] = p.Clone()
	}
	return out
}
