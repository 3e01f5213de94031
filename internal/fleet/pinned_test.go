package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"talon/internal/core"
	"talon/internal/testutil"
)

// The pinned scorecards below were recorded from the full-walk epoch
// scan (every station visited every epoch). The event-driven scan must
// reproduce them byte for byte at every worker count: they cover the
// corners where skipping a station is easiest to get wrong — a
// degrade-always threshold, drift that stops, blockages that expire,
// out-of-order IDs, departures of quietly tracked stations and a long
// churning run at two loss-sample strides.

// pinnedRun drives one Manager over a seeded generator workload (when
// cfg.Stations > 0) plus an optional script that runs before each Step,
// checks the manager's invariants after every Step and returns the
// scorecard JSON.
func pinnedRun(t *testing.T, cfg SimConfig, workers int, extra []Option, script func(m *Manager, epoch int)) []byte {
	t.Helper()
	set := synthPatterns(t)
	est, err := core.NewEstimator(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	m, err := newSimManager(est, set, cfg, extra...)
	if err != nil {
		t.Fatal(err)
	}
	inv := newInvariantChecker(m)
	ctx := context.Background()
	gen := newGenerator(cfg.Seed, set)
	for i := 0; i < cfg.Stations; i++ {
		if !m.Arrive(gen.arrivalEvent()) {
			t.Fatalf("preseed station %d rejected", i)
		}
	}
	for e := 0; e < cfg.Epochs; e++ {
		if cfg.Stations > 0 {
			if err := gen.epochEvents(m, cfg, time.Duration(cfg.EpochNs), uint32(e+1), nil); err != nil {
				t.Fatal(err)
			}
		}
		if script != nil {
			script(m, e)
		}
		if err := m.Step(ctx); err != nil {
			t.Fatal(err)
		}
		inv.check(t)
	}
	sc := m.scorecard(cfg, gen.drops)
	sc.StationsFinal = m.Len()
	blob, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// pinnedPath names a pinned golden scorecard.
func pinnedPath(name string) string { return filepath.Join("testdata", "pinned", name+".golden.json") }

// pinnedGolden runs the case at workers 0, 1 and 2 and holds every run
// to the one golden file. Under the race detector, which slows the
// estimator tenfold, the long runs keep only the parallel worker count.
func pinnedGolden(t *testing.T, path string, cfg SimConfig, extra []Option, script func(m *Manager, epoch int)) {
	t.Helper()
	counts := []int{0, 1, 2}
	if raceEnabled && cfg.Stations*cfg.Epochs >= 100000 {
		counts = []int{2}
	}
	for _, workers := range counts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testutil.Golden(t, path, pinnedRun(t, cfg, workers, extra, script))
		})
	}
}

// TestPinnedQuantWorkload runs the workload of the quantized-kernel
// golden scorecard through pinnedRun, so the invariants hold on it
// after every Step too.
func TestPinnedQuantWorkload(t *testing.T) {
	pinnedGolden(t, filepath.Join("testdata", "scorecard.quant.golden.json"), goldenSimConfig(), nil, nil)
}

// TestPinnedDegradeAlways: a negative degrade threshold degrades every
// tracked link on its next scan, so no tracked station may be skipped.
func TestPinnedDegradeAlways(t *testing.T) {
	pinnedGolden(t, pinnedPath("degrade_always"), goldenSimConfig(), []Option{WithDegradeDropDB(-1)}, nil)
}

// TestPinnedScripted walks a hand-written event script with the retrain
// interval past the horizon, so every state change comes from events:
// drift that starts and stops, blockages that expire mid-run, arrivals
// with out-of-order and reused IDs (queued and synchronous), departures
// of tracked stations (queued and synchronous), fault bursts and one
// station off the measured pattern grid.
func TestPinnedScripted(t *testing.T) {
	cfg := SimConfig{Epochs: 26, EpochNs: int64(100 * time.Millisecond), Seed: 17, M: 12, Shards: 4}
	extra := []Option{WithRetrainInterval(time.Hour), WithLossSampleStride(5)}
	const n = 48
	id := func(i int) StationID { return StationID((i*37)%n*3 + 5) }
	arrival := func(sid StationID, az, drift float64) Event {
		return Event{Kind: EventArrival, Station: sid, AzDeg: az, ElDeg: float64(sid % 20), DistM: 1.5 + float64(sid%7), DriftDegPerSec: drift}
	}
	script := func(m *Manager, e int) {
		switch e {
		case 0:
			for i := 0; i < n; i++ {
				drift := 0.0
				if i%4 == 1 {
					drift = float64(i%9) - 4.5
				}
				m.Arrive(arrival(id(i), -70+140*float64(i)/n, drift))
			}
			m.Arrive(arrival(1001, 175, 0)) // off the pattern grid: NaN serving gain
		case 2:
			for i := 1; i < n; i += 4 {
				m.Dispatch(Event{Kind: EventMobility, Station: id(i)}) // drift stops
			}
			m.Dispatch(Event{Kind: EventMobility, Station: id(6), DriftDegPerSec: 7})
			m.Dispatch(Event{Kind: EventMobility, Station: id(10), DriftDegPerSec: -9})
		case 3:
			for i := 0; i < n; i += 7 {
				m.Dispatch(Event{Kind: EventBlockage, Station: id(i), AttenDB: 20, Duration: 300 * time.Millisecond})
			}
			m.Dispatch(Event{Kind: EventBlockage, Station: id(3), AttenDB: 2, Duration: 50 * time.Millisecond})
		case 5:
			m.Dispatch(Event{Kind: EventDeparture, Station: id(2)})
			m.Dispatch(Event{Kind: EventDeparture, Station: id(11)})
			m.Depart(id(20))
			m.Depart(id(33))
		case 6:
			for _, sid := range []StationID{4, 2, 1000, 3} {
				m.Arrive(arrival(sid, float64(sid%60)-30, 0))
			}
			m.Dispatch(arrival(1, -12, 0))
			m.Dispatch(arrival(999, 44, 3))
		case 8:
			for i := 4; i < n; i += 9 {
				m.Dispatch(Event{Kind: EventFault, Station: id(i), LossFrac: 0.9})
				m.Dispatch(Event{Kind: EventBlockage, Station: id(i), AttenDB: 12, Duration: 500 * time.Millisecond})
			}
		case 11:
			m.Dispatch(Event{Kind: EventMobility, Station: id(6)})
			m.Dispatch(Event{Kind: EventMobility, Station: id(10)})
			m.Dispatch(Event{Kind: EventMobility, Station: 999})
		case 13:
			m.Depart(id(0))
			m.Dispatch(Event{Kind: EventDeparture, Station: id(21)})
			m.Dispatch(Event{Kind: EventDeparture, Station: 1000})
		case 16:
			m.Arrive(arrival(id(20), 15, 0)) // reuses a departed ID
			m.Dispatch(arrival(id(2), -25, 0))
			m.Dispatch(Event{Kind: EventBlockage, Station: id(5), AttenDB: 30, Duration: 200 * time.Millisecond})
		case 20:
			m.Depart(id(13))
			m.Dispatch(Event{Kind: EventDeparture, Station: id(14)})
		}
	}
	pinnedGolden(t, pinnedPath("scripted"), cfg, extra, script)
}

// TestPinnedStaleTimers cycles every station through blockage, degrade,
// backoff and retrain every four epochs under an hour-long retrain
// interval: each cycle moves a pending staleness deadline, so each
// station's timer-heap entry is rearmed many times; the heap must hold
// at most one entry per armed station and lose no live deadline.
func TestPinnedStaleTimers(t *testing.T) {
	cfg := SimConfig{Epochs: 120, EpochNs: int64(100 * time.Millisecond), Seed: 23, M: 12, Shards: 2}
	extra := []Option{WithRetrainInterval(time.Hour), WithLossSampleStride(3)}
	const n = 32
	script := func(m *Manager, e int) {
		for _, sh := range m.shards {
			armedN := 0
			for i := range sh.hot {
				if armed(&sh.hot[i]) {
					armedN++
				}
			}
			if len(sh.timers) > armedN {
				t.Fatalf("epoch %d: timer heap holds %d entries for %d armed stations", e, len(sh.timers), armedN)
			}
		}
		if e == 0 {
			for i := 0; i < n; i++ {
				m.Arrive(Event{Kind: EventArrival, Station: StationID(i), AzDeg: -62 + 4*float64(i), ElDeg: float64(i % 20), DistM: 2})
			}
			return
		}
		if e%4 == 2 {
			for i := 0; i < n; i++ {
				m.Dispatch(Event{Kind: EventBlockage, Station: StationID(i), AttenDB: 25, Duration: 200 * time.Millisecond})
			}
		}
	}
	pinnedGolden(t, pinnedPath("stale_timers"), cfg, extra, script)
}

// pinnedLongConfig is a 2,000-station, 300-epoch churning run with
// capacity queueing.
func pinnedLongConfig() SimConfig {
	return SimConfig{
		Stations:         2000,
		Epochs:           300,
		EpochNs:          int64(100 * time.Millisecond),
		Seed:             13,
		M:                12,
		Shards:           16,
		Capacity:         150,
		ChurnPerEpoch:    0.002,
		MobilityPerEpoch: 0.01,
		BlockagePerEpoch: 0.004,
		FaultPerEpoch:    0.004,
	}
}

func TestPinnedLongStride16(t *testing.T) {
	pinnedGolden(t, pinnedPath("long_stride16"), pinnedLongConfig(), []Option{WithLossSampleStride(16)}, nil)
}

func TestPinnedLongStride7(t *testing.T) {
	pinnedGolden(t, pinnedPath("long_stride7"), pinnedLongConfig(), []Option{WithLossSampleStride(7)}, nil)
}
