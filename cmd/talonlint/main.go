// Command talonlint runs talon's project-specific static-analysis suite
// over the module:
//
//	go run ./cmd/talonlint ./...
//
// Eight analyzers enforce the invariants the reproduction's claims rest
// on (see internal/analysis):
//
//	determinism     no time.Now/time.Since or global math/rand in library code
//	ctxfirst        context-first APIs, no conjured root contexts
//	metricname      snake_case, prefixed, golden-pinned obs metric names
//	senterr         sentinel errors matched with errors.Is, wrapped with %w
//	lockdiscipline  every mutex acquire pairs with a release; no double-lock
//	atomicmix       no plain access to fields touched through sync/atomic
//	goroutinescope  goroutines joined (WaitGroup/channel) or ctx-scoped
//	noalloc         //talon:noalloc functions avoid allocating constructs
//
// determinism and ctxfirst are scoped to the deterministic library
// packages (internal/{core,eval,fault,wil,channel,stats,testbed,
// fleet,tracestore}); lockdiscipline and atomicmix extend that
// scope with internal/obs (where the mutexes live); goroutinescope
// binds the packages that promise structured concurrency
// (internal/{core,eval,fleet,tracestore,obs}); metricname,
// senterr and noalloc apply module-wide. cmd/ binaries own their roots,
// wall clocks and goroutines by design. Findings are suppressed
// line-by-line with `//lint:allow <analyzer> -- <reason>`; an allow
// that suppresses nothing is itself reported as stale.
//
// -json emits every diagnostic — suppressed ones included, flagged — as
// a JSON array on stdout for machine consumption (the CI artifact).
//
// Exit status is 1 when any unsuppressed finding survives, so CI can
// require it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"talon/internal/analysis"
)

// libScopeRe matches the import paths of the deterministic library
// packages that determinism and ctxfirst bind.
var libScopeRe = regexp.MustCompile(`/internal/(core|eval|fault|wil|channel|stats|testbed|fleet|tracestore)(/|$)`)

// concScopeRe adds internal/obs to the library scope for the mutex- and
// atomic-convention analyzers: obs is excused from determinism (it
// wraps the wall clock) but its locks follow the same discipline.
var concScopeRe = regexp.MustCompile(`/internal/(core|eval|fault|wil|channel|stats|testbed|fleet|tracestore|obs)(/|$)`)

// goScopeRe matches the packages that promise structured concurrency:
// every goroutine they launch is joined or cancellation-scoped.
var goScopeRe = regexp.MustCompile(`/internal/(core|eval|fleet|tracestore|obs)(/|$)`)

func main() {
	golden := flag.String("golden", "", "metric inventory file (default <module>/testdata/metric_names.golden)")
	dir := flag.String("C", "", "run as if started in this directory")
	jsonOut := flag.Bool("json", false, "emit all diagnostics (suppressed included) as JSON on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: talonlint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := run(*dir, *golden, *jsonOut, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "talonlint:", err)
		os.Exit(2)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "talonlint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// jsonDiag is the machine-readable shape of one diagnostic.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// run lints the matched packages and returns the number of unsuppressed
// findings.
func run(dir, golden string, jsonOut bool, patterns []string) (int, error) {
	if golden == "" {
		root, err := moduleRoot(dir)
		if err != nil {
			return 0, err
		}
		golden = filepath.Join(root, "testdata", "metric_names.golden")
	}

	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return 0, err
	}

	wide := []*analysis.Analyzer{analysis.NewMetricName(golden), analysis.SentErr, analysis.NoAlloc}

	findings := 0
	all := []jsonDiag{} // marshals to [] rather than null when empty
	for _, pkg := range pkgs {
		as := append([]*analysis.Analyzer(nil), wide...)
		path := "/" + pkg.ImportPath
		if libScopeRe.MatchString(path) {
			as = append(as, analysis.Determinism, analysis.CtxFirst)
		}
		if concScopeRe.MatchString(path) {
			as = append(as, analysis.LockDiscipline, analysis.AtomicMix)
		}
		if goScopeRe.MatchString(path) {
			as = append(as, analysis.GoroutineScope)
		}
		for _, d := range analysis.RunAnalyzersAll(pkg, as...) {
			if jsonOut {
				all = append(all, jsonDiag{
					File:       d.Pos.Filename,
					Line:       d.Pos.Line,
					Col:        d.Pos.Column,
					Analyzer:   d.Analyzer,
					Message:    d.Message,
					Suppressed: d.Suppressed,
				})
			}
			if d.Suppressed {
				continue
			}
			if !jsonOut {
				fmt.Println(d)
			}
			findings++
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			return 0, err
		}
	}
	return findings, nil
}

// moduleRoot walks up from dir (or the working directory) to go.mod.
func moduleRoot(dir string) (string, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		abs = parent
	}
}
