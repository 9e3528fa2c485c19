package caliper

import (
	"runtime"
	"strings"
	"testing"
)

// testSource is a deterministic counter source for exercising the
// cumulative-vs-gauge recording semantics: "test.cum" advances by one
// per sample, "test.gauge" reports the sample ordinal directly.
type testSource struct{ samples float64 }

func (s *testSource) Counters() []Counter {
	return []Counter{{Name: "test.cum"}, {Name: "test.gauge", Gauge: true}}
}
func (s *testSource) Sample(buf []float64) {
	s.samples++
	buf[0] = s.samples // cumulative: recorder stores End-Begin deltas
	buf[1] = s.samples // gauge: recorder stores the End value
}

func TestParseServices(t *testing.T) {
	empty, err := ParseServices("")
	if err != nil || len(empty) != 0 {
		t.Fatalf("ParseServices(\"\") = %v, %v", empty, err)
	}
	svc, err := ParseServices("trace,runtime, imbalance")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"runtime", ServiceTrace, ServiceImbalance} {
		if !svc.Enabled(name) {
			t.Errorf("service %q not enabled in %v", name, svc)
		}
	}
	if svc.Enabled("null") {
		t.Error("null source enabled without being requested")
	}
	if got := svc.String(); got != "imbalance,runtime,trace" {
		t.Errorf("String() = %q, want sorted canonical form", got)
	}
	if _, err := ParseServices("runtime,bogus"); err == nil {
		t.Error("unknown service accepted")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %v does not name the unknown service", err)
	}
}

func TestServiceNamesIncludeBuiltins(t *testing.T) {
	names := strings.Join(ServiceNames(), ",")
	for _, want := range []string{"runtime", "null", ServiceTrace, ServiceImbalance} {
		if !strings.Contains(names, want) {
			t.Errorf("ServiceNames() = %v missing %q", names, want)
		}
	}
}

// TestCounterRecordingSemantics pins down how the recorder folds samples
// into metrics: cumulative counters record the in-region delta summed
// over visits, gauges record the value at the last region exit.
func TestCounterRecordingSemantics(t *testing.T) {
	rec := NewRecorderWith(Config{Sources: []CounterSource{&testSource{}}})
	for i := 0; i < 3; i++ {
		rec.Region("r", func() {})
	}
	r := rec.Profile().Find("r")
	if r == nil {
		t.Fatal("region record missing")
	}
	// Each visit samples once at Begin and once at End: delta 1 per
	// visit, 3 visits.
	if got := r.Metrics["test.cum"]; got != 3 {
		t.Errorf("cumulative counter = %v, want 3 (one delta per visit)", got)
	}
	// The gauge holds the final End sample: sample ordinal 6.
	if got := r.Metrics["test.gauge"]; got != 6 {
		t.Errorf("gauge counter = %v, want 6 (last sample wins)", got)
	}
}

func TestNullSourceBaseline(t *testing.T) {
	svc, err := ParseServices("null")
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorderWith(Config{Sources: svc.CounterSources()})
	rec.Region("r", func() {})
	r := rec.Profile().Find("r")
	for _, name := range []string{"null.zero", "null.gauge"} {
		if v, ok := r.Metrics[name]; !ok || v != 0 {
			t.Errorf("metric %q = %v, %v; want 0 recorded", name, v, ok)
		}
	}
}

// TestRuntimeSource checks the PAPI-analog counters respond to real
// runtime activity inside a region.
func TestRuntimeSource(t *testing.T) {
	svc, err := ParseServices("runtime")
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorderWith(Config{Sources: svc.CounterSources()})
	var sink [][]byte
	rec.Region("alloc", func() {
		for i := 0; i < 100; i++ {
			sink = append(sink, make([]byte, 64<<10))
		}
		runtime.GC()
	})
	_ = sink
	r := rec.Profile().Find("alloc")
	if r == nil {
		t.Fatal("region record missing")
	}
	if got := r.Metrics["go.heap.allocs.bytes"]; got < 100*64<<10 {
		t.Errorf("go.heap.allocs.bytes = %v, want >= %d", got, 100*64<<10)
	}
	if got := r.Metrics["go.gc.cycles"]; got < 1 {
		t.Errorf("go.gc.cycles = %v, want >= 1 after explicit GC", got)
	}
	if got := r.Metrics["go.goroutines"]; got < 1 {
		t.Errorf("go.goroutines gauge = %v, want >= 1", got)
	}
}

// TestCalibrateOverhead checks the in-run overhead measurement: every
// closed region is one sample, each is traced once, and the measured cost
// is positive under the runtime source with a real tracer.
func TestCalibrateOverhead(t *testing.T) {
	svc, err := ParseServices("runtime")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	tracer := NewTracer(1, 2*n)
	rec := NewRecorderWith(Config{Sources: svc.CounterSources(), Tracer: tracer})
	if ov := rec.Overhead(); ov != (Overhead{}) {
		t.Errorf("Overhead before any region = %+v, want zero", ov)
	}
	rec.Begin("outer")
	for i := 0; i < n-1; i++ {
		rec.Region("r", func() {})
	}
	if err := rec.End("outer"); err != nil {
		t.Fatal(err)
	}
	ov := rec.Overhead()
	if ov.PerRegionSec <= 0 {
		t.Errorf("PerRegionSec = %v, want > 0", ov.PerRegionSec)
	}
	if ov.Samples != n {
		t.Errorf("Samples = %d, want %d regions closed", ov.Samples, n)
	}
	if got := len(tracer.Events()); got != n {
		t.Errorf("tracer holds %d events, want one per region (%d)", got, n)
	}
	if f := ov.Fraction(10, 1); f <= 0 {
		t.Errorf("Fraction(10, 1s) = %v, want > 0", f)
	}
	if f := (Overhead{PerRegionSec: 1}).Fraction(100, 1); f != 1 {
		t.Errorf("Fraction not clamped: %v", f)
	}
	if f := ov.Fraction(10, 0); f != 0 {
		t.Errorf("Fraction with zero wall = %v, want 0", f)
	}
}
