//go:build race

package pattern

// raceEnabled reports whether this test binary runs under the race
// detector (which instruments allocations and skews AllocsPerRun).
const raceEnabled = true
