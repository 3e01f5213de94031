package fleet

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"talon/internal/core"
	"talon/internal/pattern"
	"talon/internal/tracestore"
)

// KindFleetEvent tags fleet event-stream shards in trace-store headers
// (tracestore.KindTrial is 1).
const KindFleetEvent uint16 = 2

// eventMetaVersion is the EventRecord column-layout version stored in
// the shard meta.
const eventMetaVersion uint16 = 1

// EventRecord is one persisted workload event. Epoch 0 marks preseed
// arrivals (applied synchronously before the first epoch); epoch e+1
// marks events generated during simulation epoch e, dispatched before
// that epoch's Step. The trace-store seed column carries a monotonic
// sequence number, so within and across shards the stream replays in
// generation order.
type EventRecord struct {
	Epoch uint32
	Ev    Event
}

// EventCodec encodes the fleet workload event stream. The float fields
// are stored as full float64 columns — the replayed Manager must see
// bit-identical inputs for the scorecard to match.
type EventCodec struct{}

// eventSize is the per-record byte cost: epoch u32, kind u8, station
// u64, six f64 scalars and the i64 duration.
const eventSize = 4 + 1 + 8 + 6*8 + 8

// Kind implements tracestore.Codec.
func (EventCodec) Kind() uint16 { return KindFleetEvent }

// Meta implements tracestore.Codec: the layout version and a reserved
// zero, two little-endian u16s.
func (EventCodec) Meta() []byte {
	meta := make([]byte, 4)
	binary.LittleEndian.PutUint16(meta, eventMetaVersion)
	return meta
}

// CheckMeta implements tracestore.Codec.
func (EventCodec) CheckMeta(meta []byte) error {
	if len(meta) != 4 {
		return fmt.Errorf("%w: fleet event meta length %d", tracestore.ErrKindMismatch, len(meta))
	}
	if v := binary.LittleEndian.Uint16(meta); v != eventMetaVersion {
		return fmt.Errorf("%w: fleet event layout v%d, codec expects v%d", tracestore.ErrKindMismatch, v, eventMetaVersion)
	}
	return nil
}

// AppendBlock implements tracestore.Codec; column-major like the trial
// codec, so decode runs one tight loop per column.
func (EventCodec) AppendBlock(buf []byte, recs []EventRecord) []byte {
	n := len(recs)
	off := len(buf)
	buf = append(buf, make([]byte, n*eventSize)...)
	b := buf[off:]

	p := 0
	for i := range recs {
		binary.LittleEndian.PutUint32(b[p:], recs[i].Epoch)
		p += 4
	}
	for i := range recs {
		b[p] = byte(recs[i].Ev.Kind)
		p++
	}
	for i := range recs {
		binary.LittleEndian.PutUint64(b[p:], uint64(recs[i].Ev.Station))
		p += 8
	}
	p = putF64Col(b, p, recs, func(ev *Event) float64 { return ev.AzDeg })
	p = putF64Col(b, p, recs, func(ev *Event) float64 { return ev.ElDeg })
	p = putF64Col(b, p, recs, func(ev *Event) float64 { return ev.DistM })
	p = putF64Col(b, p, recs, func(ev *Event) float64 { return ev.DriftDegPerSec })
	p = putF64Col(b, p, recs, func(ev *Event) float64 { return ev.AttenDB })
	p = putF64Col(b, p, recs, func(ev *Event) float64 { return ev.LossFrac })
	for i := range recs {
		binary.LittleEndian.PutUint64(b[p:], uint64(recs[i].Ev.Duration))
		p += 8
	}
	return buf
}

func putF64Col(b []byte, p int, recs []EventRecord, get func(*Event) float64) int {
	for i := range recs {
		binary.LittleEndian.PutUint64(b[p:], math.Float64bits(get(&recs[i].Ev)))
		p += 8
	}
	return p
}

// DecodeBlock implements tracestore.Codec, reusing dst's capacity.
func (EventCodec) DecodeBlock(raw []byte, n int, dst []EventRecord) ([]EventRecord, error) {
	if len(raw) != n*eventSize {
		return nil, fmt.Errorf("%w: block holds %d bytes, %d events need %d",
			tracestore.ErrCorrupt, len(raw), n, n*eventSize)
	}
	if cap(dst) < n {
		dst = make([]EventRecord, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = EventRecord{}
	}

	p := 0
	for i := range dst {
		dst[i].Epoch = binary.LittleEndian.Uint32(raw[p:])
		p += 4
	}
	for i := range dst {
		dst[i].Ev.Kind = EventKind(raw[p])
		p++
	}
	for i := range dst {
		dst[i].Ev.Station = StationID(binary.LittleEndian.Uint64(raw[p:]))
		p += 8
	}
	p = getF64Col(raw, p, dst, func(ev *Event, v float64) { ev.AzDeg = v })
	p = getF64Col(raw, p, dst, func(ev *Event, v float64) { ev.ElDeg = v })
	p = getF64Col(raw, p, dst, func(ev *Event, v float64) { ev.DistM = v })
	p = getF64Col(raw, p, dst, func(ev *Event, v float64) { ev.DriftDegPerSec = v })
	p = getF64Col(raw, p, dst, func(ev *Event, v float64) { ev.AttenDB = v })
	p = getF64Col(raw, p, dst, func(ev *Event, v float64) { ev.LossFrac = v })
	for i := range dst {
		dst[i].Ev.Duration = time.Duration(binary.LittleEndian.Uint64(raw[p:]))
		p += 8
	}
	return dst, nil
}

func getF64Col(raw []byte, p int, dst []EventRecord, set func(*Event, float64)) int {
	for i := range dst {
		set(&dst[i].Ev, math.Float64frombits(binary.LittleEndian.Uint64(raw[p:])))
		p += 8
	}
	return p
}

// RunSimRecorded runs the seeded simulation like RunSim while streaming
// every generated event — preseed arrivals and all epoch workload,
// recorded before the dispatch so queue drops replay deterministically —
// into trace-store shards named base under dir. Stale shards of the same
// basename are removed first.
func RunSimRecorded(ctx context.Context, est *core.Estimator, patterns *pattern.Set, cfg SimConfig, dir, base string) (*Scorecard, []tracestore.Shard, error) {
	stale, err := filepath.Glob(filepath.Join(dir, base+"-*.bin"))
	if err != nil {
		return nil, nil, err
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return nil, nil, err
		}
	}
	w, err := tracestore.NewWriter[EventRecord](EventCodec{}, dir, base, tracestore.WriterOptions{})
	if err != nil {
		return nil, nil, err
	}
	defer w.Close()

	var seq uint64
	rec := func(epoch uint32, ev Event) error {
		seq++
		return w.Append(seq, EventRecord{Epoch: epoch, Ev: ev})
	}
	sc, err := runSim(ctx, est, patterns, cfg, rec)
	if err != nil {
		return nil, nil, err
	}
	shards, err := w.Close()
	if err != nil {
		return nil, nil, err
	}
	return sc, shards, nil
}

// ReplaySim rebuilds a fresh Manager and drives it from the recorded
// event stream under dir/base instead of the live generator: preseed
// records arrive synchronously, each epoch's records are dispatched and
// the epoch stepped when the stream moves past it. A record for an
// epoch already stepped or beyond cfg.Epochs fails the replay. The
// workload RNG is never consulted, yet the scorecard is byte-identical
// to the recording run's — including its queue-drop count, which
// re-emerges from the Manager's own backpressure.
func ReplaySim(ctx context.Context, est *core.Estimator, patterns *pattern.Set, cfg SimConfig, dir, base string) (*Scorecard, error) {
	return replaySim(ctx, est, patterns, cfg, dir, base, nil)
}

// replaySim is ReplaySim with a hook that, when not nil, runs after every
// Step; an error from it ends the replay.
func replaySim(ctx context.Context, est *core.Estimator, patterns *pattern.Set, cfg SimConfig, dir, base string, afterStep func(*Manager) error) (*Scorecard, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	shards, err := tracestore.Discover(dir, base)
	if err != nil {
		return nil, err
	}
	m, err := newSimManager(est, patterns, cfg)
	if err != nil {
		return nil, err
	}

	var drops int64
	stepped := 0
	step := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := m.Step(ctx); err != nil {
			return err
		}
		stepped++
		if afterStep != nil {
			return afterStep(m)
		}
		return nil
	}
	// One worker: the event stream is order-sensitive, and ReplayShards
	// visits shards in index order when serial.
	err = tracestore.ReplayShards(ctx, EventCodec{}, shards, 1, func(_ int, recs []EventRecord) error {
		for i := range recs {
			r := &recs[i]
			if r.Epoch == 0 {
				if stepped > 0 {
					return fmt.Errorf("fleet: preseed event after epoch %d in replay stream", stepped-1)
				}
				if !m.Arrive(r.Ev) {
					return fmt.Errorf("fleet: duplicate preseed station %d in replay stream", r.Ev.Station)
				}
				continue
			}
			// Events for epoch e carry Epoch e+1 and precede its Step, so
			// a recorded epoch lies in [stepped+1, cfg.Epochs].
			switch e := int64(r.Epoch); {
			case e > int64(cfg.Epochs):
				return fmt.Errorf("fleet: replay event for epoch %d, run has %d epochs", e-1, cfg.Epochs)
			case e <= int64(stepped):
				return fmt.Errorf("fleet: replay event for epoch %d after epoch %d was stepped", e-1, stepped-1)
			}
			for stepped < int(r.Epoch)-1 {
				if err := step(); err != nil {
					return err
				}
			}
			if !m.Dispatch(r.Ev) {
				drops++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Epochs past the last recorded event still run (a quiet tail is a
	// valid workload).
	for stepped < cfg.Epochs {
		if err := step(); err != nil {
			return nil, err
		}
	}

	sc := m.scorecard(cfg, drops)
	sc.StationsFinal = m.Len()
	return sc, nil
}
