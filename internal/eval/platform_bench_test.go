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
