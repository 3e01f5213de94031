package fleet

import (
	"context"
	"math"
	"testing"

	"talon/internal/core"
	"talon/internal/tracestore"
)

// replayConfig is the small workload the replay tests drive: a few
// stations over a short horizon.
func replayConfig() SimConfig {
	return SimConfig{
		Stations:         4,
		Epochs:           3,
		Seed:             5,
		M:                12,
		Shards:           2,
		ChurnPerEpoch:    0.25,
		MobilityPerEpoch: 0.5,
		BlockagePerEpoch: 0.25,
		FaultPerEpoch:    0.25,
	}
}

// writeEvents stores recs as the event shards dir/base, in order.
func writeEvents(t testing.TB, dir, base string, recs []EventRecord) {
	t.Helper()
	w, err := tracestore.NewWriter[EventRecord](EventCodec{}, dir, base, tracestore.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := w.Append(uint64(i+1), r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// preseed returns n preseed arrival records (epoch 0).
func preseed(n int) []EventRecord {
	recs := make([]EventRecord, n)
	for i := range recs {
		recs[i] = EventRecord{Ev: Event{Kind: EventArrival, Station: StationID(i + 1), AzDeg: float64(20*i - 30), ElDeg: 6, DistM: 3}}
	}
	return recs
}

func mobility(epoch uint32) EventRecord {
	return EventRecord{Epoch: epoch, Ev: Event{Kind: EventMobility, Station: 1, DriftDegPerSec: 4}}
}

type namedStream struct {
	name string
	recs []EventRecord
}

// outOfRangeStreams are the two malformed recordings: an event past the
// run's horizon, and an event for an epoch that was already stepped.
func outOfRangeStreams(cfg SimConfig) []namedStream {
	return []namedStream{
		{"beyond-horizon", append(preseed(4), mobility(uint32(cfg.Epochs)+40))},
		{"stepped-epoch", append(preseed(4), mobility(3), mobility(1))},
	}
}

// TestReplaySimRejectsOutOfRangeEpochs: recorded epochs are 0 for
// preseed arrivals and 1…cfg.Epochs otherwise, in non-decreasing order.
// A stream that breaks the range fails the replay instead of stepping
// past the horizon or folding a stale event into the current epoch.
func TestReplaySimRejectsOutOfRangeEpochs(t *testing.T) {
	set := synthPatterns(t)
	est, err := core.NewEstimator(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := replayConfig()
	ctx := context.Background()
	for _, tc := range outOfRangeStreams(cfg) {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeEvents(t, dir, "events", tc.recs)
			if sc, err := ReplaySim(ctx, est, set, cfg, dir, "events"); err == nil {
				t.Fatalf("replay accepted the stream and stepped %d of %d epochs", sc.Epochs, cfg.Epochs)
			}
		})
	}
	t.Run("in-range", func(t *testing.T) {
		dir := t.TempDir()
		writeEvents(t, dir, "events", append(preseed(4), mobility(1), mobility(3)))
		sc, err := ReplaySim(ctx, est, set, cfg, dir, "events")
		if err != nil {
			t.Fatal(err)
		}
		if sc.Epochs != int64(cfg.Epochs) {
			t.Fatalf("stepped %d epochs, want %d", sc.Epochs, cfg.Epochs)
		}
	})
}

// FuzzReplaySim replays arbitrary fleet event streams: the fuzz bytes,
// cut to whole records and decoded with EventCodec, are written as a
// shard and replayed as ReplaySim does, with checkInvariants run after
// every Step. It must never panic, the invariants must hold after every
// Step, and a replay that succeeds has stepped exactly cfg.Epochs
// epochs.
func FuzzReplaySim(f *testing.F) {
	set := synthPatterns(f)
	est, err := core.NewEstimator(set, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	cfg := replayConfig()
	ctx := context.Background()

	dir := f.TempDir()
	if _, _, err := RunSimRecorded(ctx, est, set, cfg, dir, "seed"); err != nil {
		f.Fatal(err)
	}
	shards, err := tracestore.Discover(dir, "seed")
	if err != nil {
		f.Fatal(err)
	}
	var recorded []EventRecord
	if err := tracestore.ReplayShards(ctx, EventCodec{}, shards, 1, func(_ int, recs []EventRecord) error {
		recorded = append(recorded, recs...)
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	if sc, err := ReplaySim(ctx, est, set, cfg, dir, "seed"); err != nil || sc.Epochs != int64(cfg.Epochs) {
		f.Fatalf("valid seed recording: replay %v", err)
	}
	f.Add(EventCodec{}.AppendBlock(nil, recorded))
	for _, tc := range outOfRangeStreams(cfg) {
		f.Add(EventCodec{}.AppendBlock(nil, tc.recs))
	}
	f.Add(EventCodec{}.AppendBlock(nil, append(preseed(4), mobility(math.MaxUint32))))

	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / eventSize
		recs, err := EventCodec{}.DecodeBlock(data[:n*eventSize], n, nil)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		writeEvents(t, dir, "events", recs)
		var invErr error
		inv := &invariantChecker{pendingBase: metPending.Value()}
		sc, err := replaySim(ctx, est, set, cfg, dir, "events", func(m *Manager) error {
			inv.m = m
			invErr = inv.err()
			return invErr
		})
		if invErr != nil {
			t.Fatalf("after a Step: %v", invErr)
		}
		if err == nil && sc.Epochs != int64(cfg.Epochs) {
			t.Fatalf("replay stepped %d epochs, want %d", sc.Epochs, cfg.Epochs)
		}
	})
}
