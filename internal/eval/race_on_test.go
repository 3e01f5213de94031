//go:build race

package eval

// raceEnabled reports whether this test binary runs under the race
// detector, whose instrumentation perturbs allocation accounting.
const raceEnabled = true
