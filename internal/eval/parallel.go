package eval

import (
	"runtime"
	"sync/atomic"
)

// parallelismKnob caps the worker count of the trial loops; 0 means
// runtime.GOMAXPROCS.
var parallelismKnob atomic.Int32

// SetParallelism caps the number of workers the evaluation trial loops
// use. 0 restores the default (GOMAXPROCS); 1 forces serial execution.
// Results are identical at any setting: randomness is drawn serially
// before the trials fan out.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelismKnob.Store(int32(n))
}

// Parallelism returns the effective trial-loop worker count.
func Parallelism() int {
	if n := int(parallelismKnob.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
