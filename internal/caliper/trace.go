package caliper

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// The streaming event-trace service: one timestamped event per Caliper
// region and per executor scheduling granule, emitted into per-lane
// bounded buffers that are lock-free on the hot path, merged
// deterministically at flush time, and serialized in the Chrome trace
// event format so a suite run opens directly in Perfetto or
// chrome://tracing.

// TraceEvent is one Chrome-trace-format event. Region and lane events
// are complete events (Ph "X") with microsecond timestamps relative to
// the tracer's epoch; name-annotation events use Ph "M".
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since epoch
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// laneTraceBuf is one lane's event buffer. Slots are claimed with an
// atomic counter, so concurrent writers (the spawn-fallback paths can
// run several goroutines per lane slot) never touch the same slot: each
// claimed index maps to exactly one write between flushes, and writes
// past capacity are counted as drops instead of wrapping onto slots a
// reader might be visiting.
type laneTraceBuf struct {
	next atomic.Int64
	evs  []TraceEvent
	_    [5]int64 // keep adjacent lanes' counters off one cache line
}

// DefaultTraceEvents is the per-lane event capacity used when
// NewTracer's perLane argument is zero.
const DefaultTraceEvents = 1 << 15

// Tracer is the streaming event-trace service. Lane 0 of the underlying
// storage records region events from the goroutine driving the
// Recorder; executor lanes record scheduling-granule events through
// Granule. With Dispatch and Done, Granule makes a Tracer a raja.Observer
// by its method set, so a pool reports to it without this package
// importing raja. All write paths are lock-free and safe for concurrent
// use.
type Tracer struct {
	epoch   time.Time
	lanes   []laneTraceBuf
	dropped atomic.Int64
}

// NewTracer returns a tracer for an executor with lanes execution lanes,
// each with capacity for perLane events (0 = DefaultTraceEvents). One
// extra buffer holds the driver's region events.
func NewTracer(lanes, perLane int) *Tracer {
	if lanes < 1 {
		lanes = 1
	}
	if perLane <= 0 {
		perLane = DefaultTraceEvents
	}
	t := &Tracer{epoch: time.Now(), lanes: make([]laneTraceBuf, lanes+1)}
	for i := range t.lanes {
		t.lanes[i].evs = make([]TraceEvent, perLane)
	}
	return t
}

// RegionEvent records a Caliper region as a complete event on the
// driver thread (tid 0).
func (t *Tracer) RegionEvent(name string, start time.Time, dur time.Duration) {
	t.record(0, TraceEvent{Name: name, Cat: "region", Ph: "X",
		Ts: t.micros(start), Dur: dur.Seconds() * 1e6, Pid: 1, Tid: 0})
}

// Dispatch asks the executor to time the granules of a dispatch.
func (t *Tracer) Dispatch(lanes int, spawned bool) (timeDispatch, timeGranules bool) {
	return false, true
}

// Granule records one executor scheduling granule (chunk, block, or
// grab) on lane's thread track, named by its kind.
func (t *Tracer) Granule(lane, owner int, kind string, start time.Time, dur time.Duration) {
	if lane < 0 {
		lane = 0
	}
	// Spawn-fallback paths can report lane indices past the executor's
	// lane count; fold them onto the existing tracks.
	buf := 1 + lane%(len(t.lanes)-1)
	t.record(buf, TraceEvent{Name: kind, Cat: "lane", Ph: "X",
		Ts: t.micros(start), Dur: dur.Seconds() * 1e6, Pid: 1, Tid: buf})
}

// Done does nothing: the trace records granules, not whole dispatches.
func (t *Tracer) Done(spawned bool, d time.Duration) {}

func (t *Tracer) micros(at time.Time) float64 {
	return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3
}

func (t *Tracer) record(buf int, ev TraceEvent) {
	b := &t.lanes[buf]
	idx := b.next.Add(1) - 1
	if idx >= int64(len(b.evs)) {
		t.dropped.Add(1)
		return
	}
	b.evs[idx] = ev
}

// Dropped reports how many events were discarded because a lane buffer
// filled. A nonzero count means the trace is truncated, not corrupt.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// Events merges the per-lane buffers into one deterministic stream:
// sorted by timestamp, with (tid, duration descending, name) breaking
// ties so enclosing events precede their children and concurrent lanes
// order stably.
func (t *Tracer) Events() []TraceEvent {
	var out []TraceEvent
	for i := range t.lanes {
		b := &t.lanes[i]
		n := b.next.Load()
		if n > int64(len(b.evs)) {
			n = int64(len(b.evs))
		}
		out = append(out, b.evs[:n]...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Ts != out[j].Ts {
			return out[i].Ts < out[j].Ts
		}
		if out[i].Tid != out[j].Tid {
			return out[i].Tid < out[j].Tid
		}
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// chromeTrace is the JSON-object form of the Chrome trace format.
type chromeTrace struct {
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace serializes the merged event stream in Chrome trace
// event format (JSON object form), with thread-name metadata for the
// driver and each lane and the absolute RFC3339 epoch in otherData.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	evs := t.Events()
	out := chromeTrace{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"epoch":          t.epoch.UTC().Format(time.RFC3339Nano),
			"dropped_events": t.Dropped(),
		},
	}
	out.TraceEvents = append(out.TraceEvents, TraceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "rajaperf"},
	})
	tids := map[int]bool{}
	for _, ev := range evs {
		tids[ev.Tid] = true
	}
	for tid := 0; tid < len(t.lanes); tid++ {
		if !tids[tid] {
			continue
		}
		name := "driver"
		if tid > 0 {
			name = fmt.Sprintf("lane %d", tid-1)
		}
		out.TraceEvents = append(out.TraceEvents, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	out.TraceEvents = append(out.TraceEvents, evs...)
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// WriteFile writes the Chrome trace to path, creating parent
// directories.
func (t *Tracer) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("caliper: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("caliper: %w", err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("caliper: %w", err)
	}
	return f.Close()
}
