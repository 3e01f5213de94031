package eval

import (
	"context"
	"testing"
)

// BenchmarkNewPlatform times the full-fidelity platform build: both
// devices plus the chamber pattern campaign (819 grid points × 3 sweeps)
// and the estimator on the measured patterns.
func BenchmarkNewPlatform(b *testing.B) {
	f := Full()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlatform(context.Background(), 1, f.PatternGrid, f.CampaignRepeats); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlatformBuildAllocs gates the allocations of the full-fidelity
// platform build. Repeated sweeps at a grid point reuse the link's
// true-SNR table, the outlier pass allocates nothing and the rays of a
// sweep are traced into a stack buffer, so what remains is mostly the
// estimator and the patterns (measured 1,164; 6,090 with a fresh ray
// list per sweep, 50,700 before the table and the allocation-free
// outlier pass).
func TestPlatformBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	f := Full()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := NewPlatform(context.Background(), 1, f.PatternGrid, f.CampaignRepeats); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1500 {
		t.Errorf("full-fidelity platform build allocates %v times, want at most 1500", allocs)
	}
}
