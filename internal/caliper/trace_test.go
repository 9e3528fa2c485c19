package caliper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestTraceChromeSchema validates the emitted JSON against the Chrome
// trace event format: a traceEvents array whose events carry name, a
// valid phase, numeric microsecond timestamps, and pid/tid — the fields
// Perfetto requires to load the file.
func TestTraceChromeSchema(t *testing.T) {
	tr := NewTracer(2, 64)
	base := tr.epoch
	tr.RegionEvent("suite", base, 10*time.Millisecond)
	tr.Granule(0, 0, "block", base.Add(time.Millisecond), time.Millisecond)
	tr.Granule(1, 1, "block", base.Add(2*time.Millisecond), time.Millisecond)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(doc["traceEvents"], &events); err != nil {
		t.Fatalf("traceEvents is not an event array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	phases := map[string]bool{"X": true, "M": true}
	sawX, sawThreadName := 0, false
	for i, ev := range events {
		name, ok := ev["name"].(string)
		if !ok || name == "" {
			t.Fatalf("event %d: missing name: %v", i, ev)
		}
		ph, ok := ev["ph"].(string)
		if !ok || !phases[ph] {
			t.Fatalf("event %d: bad phase %v", i, ev["ph"])
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d: missing pid", i)
		}
		if _, ok := ev["tid"].(float64); !ok && ph == "X" {
			t.Fatalf("event %d: missing tid", i)
		}
		if ph == "X" {
			sawX++
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				t.Fatalf("event %d: bad ts %v", i, ev["ts"])
			}
			if dur, ok := ev["dur"].(float64); !ok || dur <= 0 {
				t.Fatalf("event %d: bad dur %v", i, ev["dur"])
			}
		}
		if name == "thread_name" {
			sawThreadName = true
		}
	}
	if sawX != 3 {
		t.Errorf("complete events = %d, want 3", sawX)
	}
	if !sawThreadName {
		t.Error("no thread_name metadata events")
	}
	var other map[string]any
	if err := json.Unmarshal(doc["otherData"], &other); err != nil {
		t.Fatalf("otherData: %v", err)
	}
	epoch, _ := other["epoch"].(string)
	if _, err := time.Parse(time.RFC3339Nano, epoch); err != nil {
		t.Errorf("epoch %q is not RFC3339: %v", epoch, err)
	}
}

// TestTraceRegionNesting drives nested recorder regions through the
// tracer and checks the emitted intervals nest: a child region's
// [ts, ts+dur] lies within its parent's.
func TestTraceRegionNesting(t *testing.T) {
	tr := NewTracer(1, 64)
	rec := NewRecorderWith(Config{Tracer: tr})
	rec.Region("outer", func() {
		rec.Region("inner", func() {
			time.Sleep(2 * time.Millisecond)
		})
		time.Sleep(time.Millisecond)
	})
	byName := map[string]TraceEvent{}
	for _, ev := range tr.Events() {
		byName[ev.Name] = ev
	}
	outer, okO := byName["outer"]
	inner, okI := byName["inner"]
	if !okO || !okI {
		t.Fatalf("missing region events: %v", byName)
	}
	if inner.Ts < outer.Ts || inner.Ts+inner.Dur > outer.Ts+outer.Dur {
		t.Errorf("inner [%v, %v] not nested in outer [%v, %v]",
			inner.Ts, inner.Ts+inner.Dur, outer.Ts, outer.Ts+outer.Dur)
	}
	if outer.Dur < inner.Dur {
		t.Errorf("outer dur %v < inner dur %v", outer.Dur, inner.Dur)
	}
}

// TestTraceDeterministicMerge records the same event set through
// concurrent writers on two tracers and checks the merged streams are
// identical — the per-lane buffers must not make flush order depend on
// goroutine interleaving.
func TestTraceDeterministicMerge(t *testing.T) {
	const lanes, perLane = 4, 128
	mk := func() *Tracer {
		tr := NewTracer(lanes, perLane)
		base := tr.epoch
		var wg sync.WaitGroup
		for l := 0; l < lanes; l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				for i := 0; i < 32; i++ {
					tr.Granule(l, l, fmt.Sprintf("b%d", i),
						base.Add(time.Duration(i)*time.Millisecond), time.Millisecond)
				}
			}(l)
		}
		wg.Wait()
		return tr
	}
	a, b := mk().Events(), mk().Events()
	if len(a) != lanes*32 {
		t.Fatalf("events = %d, want %d", len(a), lanes*32)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("merged event order differs between identical runs")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Ts < a[i-1].Ts {
			t.Fatalf("events out of timestamp order at %d: %v > %v", i, a[i-1].Ts, a[i].Ts)
		}
	}
}

// TestTraceDropWhenFull overfills a tiny buffer from concurrent writers:
// the tracer must drop, not wrap, and account for every discard.
func TestTraceDropWhenFull(t *testing.T) {
	const perLane, writers, each = 8, 4, 100
	tr := NewTracer(1, perLane)
	base := tr.epoch
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Granule(0, 0, "e", base, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != perLane {
		t.Errorf("kept events = %d, want buffer capacity %d", len(evs), perLane)
	}
	if got := tr.Dropped(); got != writers*each-perLane {
		t.Errorf("Dropped() = %d, want %d", got, writers*each-perLane)
	}
	for _, ev := range evs {
		if ev.Name != "e" {
			t.Fatalf("corrupt slot: %+v", ev)
		}
	}
}

// TestTraceRoundTrip writes a trace to disk and reads it back.
func TestTraceRoundTrip(t *testing.T) {
	tr := NewTracer(2, 16)
	tr.RegionEvent("r", tr.epoch, time.Millisecond)
	tr.Granule(1, 1, "chunk", tr.epoch, time.Millisecond)
	path := t.TempDir() + "/sub/trace.json"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ct chromeTrace
	if err := json.NewDecoder(f).Decode(&ct); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"r", "chunk", "process_name", "thread_name"} {
		if !names[want] {
			t.Errorf("round-tripped trace missing %q event", want)
		}
	}
}

// TestTraceLaneFolding verifies out-of-range lane indices (spawn
// fallbacks can exceed the executor's lane count) fold onto existing
// tracks instead of panicking.
func TestTraceLaneFolding(t *testing.T) {
	tr := NewTracer(2, 16)
	tr.Granule(-1, -1, "e", tr.epoch, time.Microsecond)
	tr.Granule(7, 7, "e", tr.epoch, time.Microsecond)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Tid < 1 || ev.Tid > 2 {
			t.Errorf("event tid %d outside lane tracks [1,2]", ev.Tid)
		}
	}
}
