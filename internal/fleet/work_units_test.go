package fleet

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"talon/internal/obs"
	"talon/internal/testutil"
)

// workUnitCounters are the kernel's machine-independent work units:
// estimates, eight-lane blocks scored, lanes read, exhaustive fallbacks,
// and the hinted items and their outcomes.
var workUnitCounters = []string{
	"core_quant_estimates_total",
	"core_quant_blocks_total",
	"core_quant_lanes_total",
	"core_quant_fallbacks_total",
	"core_warm_hints_total",
	"core_warm_hits_total",
}

// TestWorkUnitsGolden pins the kernel work of the golden scorecard's
// workload exactly: the counter deltas of one run, at one and at four
// workers, against one golden. A change to the search, the scan or the
// hint handling shows here as an exact diff of work, not as a timing
// inside the run-to-run spread. Regenerate with -update after
// intentional changes.
func TestWorkUnitsGolden(t *testing.T) {
	reg := obs.Default()
	have := make(map[string]bool)
	for _, n := range reg.Names() {
		have[n] = true
	}
	counters := make([]*obs.Counter, len(workUnitCounters))
	for i, n := range workUnitCounters {
		if !have[n] {
			t.Fatalf("metric %s is not registered", n)
		}
		counters[i] = reg.NewCounter(n, "")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := make([]int64, len(counters))
			for i, c := range counters {
				before[i] = c.Value()
			}
			runGoldenSim(t, workers)
			var b strings.Builder
			for i, c := range counters {
				fmt.Fprintf(&b, "%s %d\n", workUnitCounters[i], c.Value()-before[i])
			}
			testutil.Golden(t, filepath.Join("testdata", "work_units.golden"), []byte(b.String()))
		})
	}
}
