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
	// freshPlatform builds a seed-42 quick-fidelity platform, not
	// quickStudy's: the shared devices carry RNG state from whichever
	// tests ran before under -shuffle.
	freshPlatform := func(t *testing.T) *Platform {
		t.Helper()
		p, err := NewPlatform(context.Background(), 42, Quick().PatternGrid, Quick().CampaignRepeats)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// registered runs the named study as evalrunner -fidelity quick does
	// at seed 42, on a fresh platform.
	registered := func(t *testing.T, name string) {
		t.Helper()
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("study %q not registered", name)
		}
		var p *Platform
		if s.NeedsPlatform {
			p = freshPlatform(t)
		}
		r, err := s.Run(context.Background(), p, NewConfig(Quick(), 42))
		if err != nil {
			t.Fatal(err)
		}
		golden(t, name, r)
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
		r, err := RetrainingStudy(context.Background(), freshPlatform(t), 20, quickRetrainingDuration, stats.NewRNG(13))
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "retraining", r)
	})
	t.Run("blockage", func(t *testing.T) { registered(t, "blockage") })
	t.Run("faultsweep", func(t *testing.T) { registered(t, "faultsweep") })
	t.Run("densify", func(t *testing.T) { registered(t, "densify") })
	t.Run("random_beams", func(t *testing.T) {
		a, err := AblationRandomBeams(42, 6)
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "random_beams", &AblationSet{Ablations: []*AblationResult{a}})
	})
	t.Run("fig9", func(t *testing.T) {
		s, err := EnvironmentStudyOn(context.Background(), freshPlatform(t), 42, Quick())
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "fig9", s.Figure9())
	})
}
