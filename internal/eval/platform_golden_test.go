package eval

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"talon/internal/testutil"
)

// TestPlatformPatternsGolden pins every sample of the full-fidelity
// chamber campaign bit for bit: an FNV-1a digest over math.Float64bits of
// each sample, sector by sector in ascending ID order, elevation-major
// within a pattern. Any change to the simulated campaign (antenna gain,
// ray geometry, frame delivery, measurement noise, averaging) that moves a
// single sample by one ulp shows up here, so speed-ups of the campaign
// must leave this file byte-identical.
func TestPlatformPatternsGolden(t *testing.T) {
	f := Full()
	p, err := NewPlatform(context.Background(), 1, f.PatternGrid, f.CampaignRepeats)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	samples, missing := 0, 0
	ids := p.Patterns.IDs()
	for _, id := range ids {
		for _, v := range p.Patterns.Get(id).Flat() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
			samples++
			if math.IsNaN(v) {
				missing++
			}
		}
	}
	got := fmt.Sprintf("sectors %d\nsamples %d\nmissing %d\nfnv1a64 %016x\n", len(ids), samples, missing, h.Sum64())
	testutil.Golden(t, filepath.Join("testdata", "platform_patterns.golden"), []byte(got))
}
