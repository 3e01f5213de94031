package eval

import (
	"context"
	"path/filepath"
	"testing"

	"talon/internal/stats"
	"talon/internal/testutil"
)

// TestReportGoldens pins both renderings — Table text and MarshalJSON —
// of the deterministic standalone studies. A formatting or schema change
// shows up as a golden diff (regenerate with -update if intended).
func TestReportGoldens(t *testing.T) {
	golden := func(t *testing.T, name string, rep Report) {
		t.Helper()
		testutil.Golden(t, filepath.Join("testdata", name+".table.golden"), []byte(rep.Table()))
		b, err := rep.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		testutil.Golden(t, filepath.Join("testdata", name+".json.golden"), append(b, '\n'))
	}
	t.Run("table1", func(t *testing.T) {
		golden(t, "table1", Table1())
	})
	t.Run("fig10", func(t *testing.T) {
		r, err := Figure10(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "fig10", r)
	})
	t.Run("density", func(t *testing.T) {
		r, err := DensityStudy(context.Background(), 14, 5.5, []int{1, 100, 1000})
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "density", r)
	})
	t.Run("retraining", func(t *testing.T) {
		// A fresh platform, not quickStudy's: the shared devices carry
		// RNG state from whichever tests ran before under -shuffle.
		ctx := context.Background()
		p, err := NewPlatform(ctx, 42, Quick().PatternGrid, Quick().CampaignRepeats)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RetrainingStudy(ctx, p, 20, quickRetrainingDuration, stats.NewRNG(13))
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "retraining", r)
	})
}
