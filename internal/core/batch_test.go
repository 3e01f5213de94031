package core

import (
	"context"
	"errors"
	"testing"

	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// TestBatchMatchesSelectSector checks the batch contract: item i of
// SelectSectorBatch carries exactly what SelectSectorWarm returns for
// batch[i]'s probes and hint (SelectSector for unhinted items),
// including per-item errors, at any worker count, and advances the
// warm-start counters by exactly as much as the per-call loop.
func TestBatchMatchesSelectSector(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(314)
	model := radio.DefaultMeasurementModel()
	ctx := context.Background()

	batch := make([][]Probe, 0, 12)
	for i := 0; i < 10; i++ {
		az := -75 + 15*float64(i)
		el := 3 * float64(i%4)
		batch = append(batch, observe(t, gain, sector.TalonTX(), az, el, model, rng))
	}
	// Item 10: nothing reported — estimate and sweep fallback both fail,
	// so the item carries an error without failing the batch.
	silent := make([]Probe, len(batch[0]))
	copy(silent, batch[0])
	for i := range silent {
		silent[i].OK = false
	}
	batch = append(batch, silent)
	// Item 11: a two-probe vector — fewer than three dictionary columns
	// zeroes the whole surface (degenerate), and the sweep fallback
	// resolves it into an error-free Fallback selection.
	degenerate := make([]Probe, 2)
	copy(degenerate, batch[0][:2])
	degenerate[0].OK, degenerate[1].OK = true, true
	batch = append(batch, degenerate)

	// Hinted items, as the fleet chains them: for each of the first ten
	// vectors, the cell of its own cold selection (the previous round's
	// cell), a cell far across the grid, a cell outside the grid and
	// NoCell.
	items := BatchOf(batch)
	numAz, numEl := len(est.en.az), len(est.en.el)
	for i := 0; i < 10; i++ {
		cold, err := est.SelectSector(ctx, batch[i])
		if err != nil {
			t.Fatal(err)
		}
		ai, ei, ok := cold.AoA.Cell.split()
		if !ok {
			t.Fatalf("item %d: cold selection carries no cell", i)
		}
		far := cellOf((ai+numAz/2)%numAz, (ei+numEl/2)%numEl)
		for _, hint := range []Cell{cold.AoA.Cell, far, cellOf(numAz, numEl), NoCell} {
			items = append(items, BatchItem{Probes: batch[i], Hint: hint})
		}
	}

	warmCounters := func() [3]int64 {
		return [3]int64{metWarmHints.Value(), metWarmHits.Value(), metWarmFallbacks.Value()}
	}
	delta := func(before [3]int64) [3]int64 {
		after := warmCounters()
		return [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
	}
	want := make([]BatchResult, len(items))
	before := warmCounters()
	for i, it := range items {
		sel, err := est.SelectSectorWarm(ctx, it.Probes, it.Hint)
		want[i] = BatchResult{Selection: sel, Err: err}
	}
	wantWarm := delta(before)
	if wantWarm[1] == 0 || wantWarm[2] == 0 {
		t.Fatalf("warm counters advanced by %v: the hints must exercise both hits and fallbacks", wantWarm)
	}

	for _, workers := range []int{0, 1, 3, 64} {
		before := warmCounters()
		got, err := est.SelectSectorBatch(ctx, items, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := delta(before); d != wantWarm {
			t.Fatalf("workers=%d: warm {hints,hits,fallbacks} advanced by %v, per-call loop by %v", workers, d, wantWarm)
		}
		if len(got) != len(items) {
			t.Fatalf("workers=%d: %d results for %d items", workers, len(got), len(items))
		}
		for i := range got {
			if (got[i].Err == nil) != (want[i].Err == nil) ||
				(got[i].Err != nil && got[i].Err.Error() != want[i].Err.Error()) {
				t.Fatalf("workers=%d item %d: err = %v, want %v", workers, i, got[i].Err, want[i].Err)
			}
			if !sameSelection(got[i].Selection, want[i].Selection) {
				t.Fatalf("workers=%d item %d: selection = %+v, want %+v",
					workers, i, got[i].Selection, want[i].Selection)
			}
		}
	}
	if !errors.Is(want[10].Err, ErrTooFewProbes) {
		t.Fatalf("item 10 err = %v, want ErrTooFewProbes", want[10].Err)
	}
	if want[11].Err != nil || !want[11].Selection.Fallback {
		t.Fatalf("item 11 = %+v, want error-free fallback selection", want[11])
	}
}

func TestBatchEmptyAndCancelled(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if res, err := est.SelectSectorBatch(ctx, nil, 0); res != nil || err != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", res, err)
	}

	rng := stats.NewRNG(7)
	probes := observe(t, gain, sector.TalonTX(), 10, 6, quietModel(), rng)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	res, err := est.SelectSectorBatch(cancelled, []BatchItem{{Probes: probes}}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled batch returned results: %v", res)
	}
}
