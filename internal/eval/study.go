package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Report is what every study returns: the paper-style human rendering
// (Table), a one-line result digest (Summary), and a machine-readable
// JSON artifact (MarshalJSON). Replacing the old free-form Format()
// strings, a Report always has both renderings, so evalrunner can write
// <study>.txt and <study>.json side by side for every experiment.
type Report interface {
	// Table renders the full human-readable rows/series the paper
	// reports.
	Table() string
	// Summary condenses the result to one line for logs and -list
	// style overviews.
	Summary() string
	json.Marshaler
}

// Study is one experiment of the evaluation suite. Every study sits in
// the static studies table under a stable name; evalrunner dispatches
// through Lookup instead of a hand-written switch.
type Study struct {
	// Name is the registry key and the -exp argument.
	Name string
	// NeedsPlatform reports whether the study wants the shared
	// Platform. Standalone studies (table1, fig5/6/10, density,
	// densify, css) build their own rigs or none at all, so a runner
	// can skip the chamber campaign when only those are selected.
	NeedsPlatform bool
	// Run executes the experiment. p is the shared experiment rig (nil
	// for standalone studies); cfg carries fidelity, seeds and
	// campaign knobs.
	Run func(ctx context.Context, p *Platform, cfg Config) (Report, error)
}

// Config carries the cross-study experiment configuration. Construct
// with NewConfig: a Config built by hand lacks the shared
// environment-study memo and every study will re-scan.
type Config struct {
	// Fidelity selects the experiment dimensions (Quick or Full).
	Fidelity Fidelity
	// Seed reproduces every study.
	Seed int64
	// Fault carries the faultsweep-specific knobs; zero fields take
	// the faultsweep defaults (Seed and fidelity-scaled Trials are
	// filled in by the study).
	Fault FaultSweepConfig
	// Campaign parameterizes the out-of-core trace-store campaign.
	Campaign CampaignConfig

	env *envMemo
}

// NewConfig returns a Config whose environment study is computed at
// most once and shared by every study run with this Config (fig7,
// fig8, fig9 and headline all start from the same scans).
func NewConfig(f Fidelity, seed int64) Config {
	return Config{Fidelity: f, Seed: seed, env: &envMemo{}}
}

type envMemo struct {
	once  sync.Once
	study *EnvironmentStudy
	err   error
}

// Env returns the Config's memoized environment study, running the
// scans and trace evaluations on first use.
func (c Config) Env(ctx context.Context, p *Platform) (*EnvironmentStudy, error) {
	if c.env == nil {
		return EnvironmentStudyOn(ctx, p, c.Seed, c.Fidelity)
	}
	c.env.once.Do(func() {
		c.env.study, c.env.err = EnvironmentStudyOn(ctx, p, c.Seed, c.Fidelity)
	})
	return c.env.study, c.env.err
}

// Lookup resolves a study by name.
func Lookup(name string) (Study, bool) {
	for _, s := range studies {
		if s.Name == name {
			return s, true
		}
	}
	return Study{}, false
}

// StudyNames lists the studies in table order — the canonical "run
// everything" order, matching the paper's presentation.
func StudyNames() []string {
	names := make([]string, len(studies))
	for i, s := range studies {
		names[i] = s.Name
	}
	return names
}

// sortedStudyNames returns the names alphabetically, for error messages.
func sortedStudyNames() []string {
	names := StudyNames()
	sort.Strings(names)
	return names
}

// UnknownStudyError builds the error for an unregistered -exp value,
// listing what is available.
func UnknownStudyError(name string) error {
	return fmt.Errorf("eval: unknown study %q (available: %v)", name, sortedStudyNames())
}

// studies is the registry, in the canonical run-all order.
var studies = []Study{
	{"table1", false, func(ctx context.Context, _ *Platform, _ Config) (Report, error) {
		return Table1(), nil
	}},
	{"fig5", false, func(ctx context.Context, _ *Platform, cfg Config) (Report, error) {
		azStep, repeats := 0.9, 3
		if cfg.Fidelity.Quick() {
			azStep, repeats = 4.5, 1
		}
		return Figure5(ctx, cfg.Seed, azStep, repeats)
	}},
	{"fig6", false, func(ctx context.Context, _ *Platform, cfg Config) (Report, error) {
		azStep, elStep, repeats := 1.8, 3.6, 3
		if cfg.Fidelity.Quick() {
			azStep, elStep, repeats = 9, 10.8, 1
		}
		return Figure6(ctx, cfg.Seed, azStep, elStep, repeats)
	}},
	{"fig7", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		s, err := cfg.Env(ctx, p)
		if err != nil {
			return nil, err
		}
		return s.Figure7(), nil
	}},
	{"fig8", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		s, err := cfg.Env(ctx, p)
		if err != nil {
			return nil, err
		}
		return s.Figure8(), nil
	}},
	{"fig9", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		s, err := cfg.Env(ctx, p)
		if err != nil {
			return nil, err
		}
		return s.Figure9(), nil
	}},
	{"fig10", false, func(ctx context.Context, _ *Platform, _ Config) (Report, error) {
		return Figure10(ctx)
	}},
	{"fig11", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		sweeps := 10
		if cfg.Fidelity.Quick() {
			sweeps = 4
		}
		return Figure11(ctx, p, 14, sweeps, studyRNG(cfg, "fig11"))
	}},
	{"headline", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		s, err := cfg.Env(ctx, p)
		if err != nil {
			return nil, err
		}
		return ComputeHeadline(ctx, s)
	}},
	{"ablations", true, runAblationStudies},
	{"retraining", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		dur := fullRetrainingDuration
		if cfg.Fidelity.Quick() {
			dur = quickRetrainingDuration
		}
		return RetrainingStudy(ctx, p, 20, dur, studyRNG(cfg, "retraining"))
	}},
	{"blockage", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		rounds := 30
		if cfg.Fidelity.Quick() {
			rounds = 10
		}
		return BlockageStudy(ctx, p, 24, rounds, studyRNG(cfg, "blockage"))
	}},
	{"density", false, func(ctx context.Context, _ *Platform, _ Config) (Report, error) {
		return DensityStudy(ctx, 14, 5.5, nil)
	}},
	{"densify", false, func(ctx context.Context, _ *Platform, cfg Config) (Report, error) {
		trials := 120
		if cfg.Fidelity.Quick() {
			trials = 30
		}
		return DensifyStudy(ctx, cfg.Seed, 14, nil, trials, studyRNG(cfg, "densify"))
	}},
	{"faultsweep", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		fc := cfg.Fault
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed
		}
		if fc.Trials <= 0 {
			fc.Trials = 200
			if cfg.Fidelity.Quick() {
				fc.Trials = 50
			}
		}
		return FaultSweep(ctx, p, fc)
	}},
	{"css", false, func(ctx context.Context, _ *Platform, cfg Config) (Report, error) {
		return RunCSS(ctx, cfg.Seed, cfg.Fidelity)
	}},
	{"campaign", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		cc := cfg.Campaign
		if cc.Trials <= 0 && cfg.Fidelity.Quick() {
			cc.Trials = 2000
		}
		return RunCampaign(ctx, p, cc)
	}},
}
