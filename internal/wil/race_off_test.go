//go:build !race

package wil

// raceEnabled reports whether this test binary runs under the race
// detector, whose instrumentation perturbs allocation accounting.
const raceEnabled = false
