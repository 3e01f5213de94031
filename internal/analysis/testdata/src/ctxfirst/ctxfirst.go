// Package ctxfirst is the analysistest fixture for the ctxfirst
// analyzer.
package ctxfirst

import (
	"context"
	"time"
)

// Probe stands in for one context-aware unit of work.
func Probe(ctx context.Context, sector int) error {
	return ctx.Err()
}

// conjured roots are flagged even in unexported helpers.
func conjure() context.Context {
	_ = context.TODO()          // want "must not call context.TODO"
	return context.Background() // want "must not call context.Background"
}

// SweepWrongOrder takes a context, but not first.
func SweepWrongOrder(sectors []int, ctx context.Context) error { // want "takes a context.Context but not as its first parameter"
	for _, s := range sectors {
		if err := Probe(ctx, s); err != nil {
			return err
		}
	}
	return nil
}

// SweepNoContext loops over context-aware calls without accepting one.
func SweepNoContext(sectors []int) { // want "loops over context-aware calls"
	for _, s := range sectors {
		_ = Probe(context.Background(), s) // want "must not call context.Background"
	}
}

// Settle sleeps, so it must thread cancellation through.
func Settle() { // want "loops over context-aware calls"
	time.Sleep(time.Millisecond)
}

// Sweep is the conforming shape: context first, threaded into the loop.
func Sweep(ctx context.Context, sectors []int) error {
	for _, s := range sectors {
		if err := Probe(ctx, s); err != nil {
			return err
		}
	}
	return nil
}

// Mean loops over pure math; no context needed.
func Mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// unexportedSweep is internal plumbing; rules 2–3 only bind the API
// surface (rule 1 still applies, see conjure above).
func unexportedSweep(sectors []int) {
	for _, s := range sectors {
		_ = Probe(nil, s)
	}
}

// SettleAllowed documents a sanctioned blocking wait: the annotation on
// the line above the declaration suppresses the finding reported at the
// function name.
//
//lint:allow ctxfirst -- hardware settle time is not cancellable
func SettleAllowed() {
	time.Sleep(time.Millisecond)
}
