// Package determinism is the analysistest fixture for the determinism
// analyzer.
package determinism

import (
	"math/rand"
	"time"
)

// Wall-clock reads are flagged in all three spellings.
func wallClock() time.Duration {
	start := time.Now() // want "call to time.Now in deterministic library code"
	var deadline time.Time
	_ = time.Until(deadline) // want "time.Until reads the wall clock implicitly"
	return time.Since(start) // want "time.Since reads the wall clock implicitly"
}

// The global, process-seeded generator is flagged.
func globalRand() float64 {
	_ = rand.Intn(64)                  // want "global rand.Intn uses the ambient process-seeded generator"
	rand.Shuffle(8, func(i, j int) {}) // want "global rand.Shuffle uses the ambient process-seeded generator"
	return rand.Float64()              // want "global rand.Float64 uses the ambient process-seeded generator"
}

// rand.New seeded from a constant is not an injected stream.
func constantSeed() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want "rand.New without an injected seed"
}

// rand.New with a caller-supplied seed is the sanctioned pattern:
// experiments replay from the seed value.
func injectedSeed(seed int64) *rand.Rand {
	r := rand.New(rand.NewSource(seed))
	_ = r.Float64() // methods on an injected generator are fine
	return r
}

// A source variable constructed elsewhere also counts as injected.
func injectedSource(src rand.Source) *rand.Rand {
	return rand.New(src)
}

// Annotated wall-clock observability is the sanctioned escape hatch.
func annotated() time.Time {
	//lint:allow determinism -- latency histogram needs the wall clock
	return time.Now()
}

func annotatedTrailing() time.Time {
	return time.Now() //lint:allow determinism -- latency histogram needs the wall clock
}

// An allow comment for a different analyzer does not suppress.
func wrongAnalyzer() time.Time {
	//lint:allow ctxfirst -- wrong analyzer name
	return time.Now() // want "call to time.Now in deterministic library code"
}
