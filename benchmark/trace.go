package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// spanName identifies a span site in the benchmark. Spans wrap the
// benchmark's own calls into each layer; nothing inside the program
// under test is traced.
type spanName uint8

const (
	spSetup spanName = iota
	spPlatform
	spEstimator
	spRecord
	spArrive
	spWarmup
	spRecovery
	spGenerate
	spStep
	spCheckpoint
	spReplay
	spDecode
	spSelect
	spBatchCheck
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spSetup:      "setup",
	spPlatform:   "eval.NewPlatform",
	spEstimator:  "core.NewEstimator",
	spRecord:     "eval.RecordCampaign",
	spArrive:     "fleet.Arrive",
	spWarmup:     "fleet.Step(warmup)",
	spRecovery:   "fleet.Step(recovery)",
	spGenerate:   "workload.events+fleet.Dispatch",
	spStep:       "fleet.Step",
	spCheckpoint: "fleet.Snapshot(checkpoint)",
	spReplay:     "eval.ReplayCampaign",
	spDecode:     "tracestore.ReplayShards",
	spSelect:     "core.SelectSector",
	spBatchCheck: "core.SelectSectorBatch(check)",
}

// spanCapacity bounds the traced run's span buffer (32 MiB); spans past
// it are counted as dropped, never allocated.
const spanCapacity = 1 << 20

// span is one recorded interval, in nanoseconds since the tracer started.
type span struct {
	start, end int64
	parent     int32
	epoch      int32
	name       spanName
}

// tracer records spans into a preallocated slice. All methods accept a
// nil receiver and then do nothing, so untraced code paths pay one
// nil check per span site.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its handle (-1 when not recorded).
// epoch is the fleet epoch or operation index, -1 outside the window.
func (t *tracer) begin(name spanName, parent int32, epoch int) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		start: int64(time.Since(t.t0)), end: -1,
		parent: parent, epoch: int32(epoch), name: name,
	})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
}

// selfTimes sums, per span name, the count, the total duration and the
// self time: a span's duration minus the part its children cover.
// outside marks names with a span recorded outside the window.
func (t *tracer) selfTimes() (count, total, self [numSpanNames]int64, outside [numSpanNames]bool) {
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		count[s.name]++
		total[s.name] += d
		self[s.name] += d
		outside[s.name] = outside[s.name] || s.epoch < 0
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= d
		}
	}
	return count, total, self, outside
}

// printSelfTime writes the self-time table, largest self time first.
// The window% column divides the self time of spans recorded inside the
// window by the traced window time: the summed durations of the window's
// top-level spans. Only every other window operation is traced.
func (t *tracer) printSelfTime(w io.Writer) {
	count, total, self, outside := t.selfTimes()
	var traced int64
	for _, s := range t.spans {
		if s.parent < 0 && s.epoch >= 0 && s.end >= 0 {
			traced += s.end - s.start
		}
	}
	order := make([]spanName, 0, numSpanNames)
	for n := spanName(0); n < numSpanNames; n++ {
		if count[n] > 0 {
			order = append(order, n)
		}
	}
	sort.Slice(order, func(i, j int) bool { return self[order[i]] > self[order[j]] })
	fmt.Fprintf(w, "self time: %d spans, %d dropped, %.6f s of traced window operations\n",
		len(t.spans), t.dropped, float64(traced)/1e9)
	fmt.Fprintf(w, "  %-32s %10s %12s %12s %8s\n", "span", "count", "total_s", "self_s", "window%")
	for _, n := range order {
		share := "-"
		if traced > 0 && !outside[n] {
			share = fmt.Sprintf("%.1f", 100*float64(self[n])/float64(traced))
		}
		fmt.Fprintf(w, "  %-32s %10d %12.6f %12.6f %8s\n", spanNames[n], count[n],
			float64(total[n])/1e9, float64(self[n])/1e9, share)
	}
}

// writeJSON writes the spans to path as JSON lines: a header object,
// then one object per span. parent is the index of the parent span in
// that order (-1 for none); epoch is the window operation (-1 outside
// the window).
func (t *tracer) writeJSON(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	type jsonSpan struct {
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Epoch   int32  `json:"epoch"`
	}
	enc := json.NewEncoder(bw)
	head := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    int    `json:"spans"`
		Dropped  int64  `json:"dropped"`
	}{workload, seed, len(t.spans), t.dropped}
	err = enc.Encode(head)
	for _, s := range t.spans {
		if err != nil {
			break
		}
		err = enc.Encode(jsonSpan{spanNames[s.name], s.start, s.end, s.parent, s.epoch})
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
