package caliper

import (
	"math"
	"runtime/metrics"
)

// runtimeSource is the Go-runtime counter source — the PAPI analog for a
// managed runtime. Sampled at region Begin/End, it attaches per-region
// deltas of the runtime/metrics counters that matter for kernel
// performance: GC cycles and pause time, heap allocation volume, and
// scheduler latency, plus the live-goroutine gauge. Histogram-valued
// runtime metrics (GC pauses, sched latencies) are reduced to an
// approximate cumulative total (bucket count x bucket midpoint), which
// deltas cleanly between two samples.
type runtimeSource struct {
	names    []string // runtime/metrics keys, parallel to counters
	counters []Counter
	samples  []metrics.Sample // reusable read buffer
}

// runtimeMetrics maps the runtime/metrics keys we sample to the metric
// names recorded on regions. Order fixes the counter layout.
var runtimeMetrics = []struct {
	key   string
	name  string
	gauge bool
}{
	{"/gc/cycles/total:gc-cycles", "go.gc.cycles", false},
	{"/gc/pauses:seconds", "go.gc.pause.sec", false},
	{"/gc/heap/allocs:bytes", "go.heap.allocs.bytes", false},
	{"/gc/heap/allocs:objects", "go.heap.allocs.objects", false},
	{"/sched/latencies:seconds", "go.sched.latency.sec", false},
	{"/sched/goroutines:goroutines", "go.goroutines", true},
}

func newRuntimeSource() CounterSource {
	s := &runtimeSource{}
	for _, m := range runtimeMetrics {
		s.names = append(s.names, m.key)
		s.counters = append(s.counters, Counter{Name: m.name, Gauge: m.gauge})
		s.samples = append(s.samples, metrics.Sample{Name: m.key})
	}
	return s
}

func (s *runtimeSource) Counters() []Counter { return s.counters }

func (s *runtimeSource) Sample(buf []float64) {
	metrics.Read(s.samples)
	for i := range s.samples {
		buf[i] = sampleValue(s.samples[i].Value)
	}
}

// sampleValue flattens a runtime/metrics value to float64. Histograms
// reduce to the approximate sum of observations so cumulative histogram
// metrics delta like plain counters.
func sampleValue(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	case metrics.KindFloat64Histogram:
		return histogramSum(v.Float64Histogram())
	default:
		return 0
	}
}

// histogramSum approximates the total of all observations in h: each
// bucket contributes its count times its midpoint. Unbounded edge
// buckets (-Inf / +Inf) use their finite boundary.
func histogramSum(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var total float64
	for i, count := range h.Counts {
		if count == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var mid float64
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			mid = 0
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		total += float64(count) * mid
	}
	return total
}
