package telemetry

import (
	"sync/atomic"
	"time"
)

// dispatchSample is the latency sampling rate: 1 in 8 pooled dispatches
// times its dispatch-to-completion window. Power of two, so the selection
// is a mask test; the first pooled dispatch is always sampled.
const dispatchSample = 8

// PoolMetrics is the executor pool's dispatch telemetry. Its Dispatch,
// Granule and Done methods make it a raja.Observer by its method set, so
// a pool reports to it without this package importing raja. Every pool
// it observes records into the same series:
//
//   - raja.pool.dispatches / raja.pool.dispatch_ns — pooled dispatches
//     (exact) and their dispatch-to-completion latency (sampled 1 in
//     dispatchSample, so the histogram count is ~1/8 of the counter);
//   - raja.pool.spawn_fallbacks — dispatches that found the pool busy,
//     closed, or nested, and spawned goroutines instead;
//   - raja.pool.active_dispatches — parallel regions in flight, pooled
//     or spawned, one gauge shared by every observed pool.
//
// A pool it observes pays three uncontended atomic updates per dispatch
// and two clock reads per sampled one; the clock reads dominate, and
// sampling them keeps the amortized cost inside the budget that
// BenchmarkPoolDispatchTelemetry measures.
type PoolMetrics struct {
	dispatches *Counter
	dispatchNS *Histogram
	fallbacks  *Counter
	active     *Gauge
	seq        atomic.Uint64 // pooled-dispatch ordinal driving the sampler
}

// NewPoolMetrics resolves the pool series in reg.
func NewPoolMetrics(reg *Registry) *PoolMetrics {
	return &PoolMetrics{
		dispatches: reg.Counter("raja.pool.dispatches"),
		dispatchNS: reg.Histogram("raja.pool.dispatch_ns"),
		fallbacks:  reg.Counter("raja.pool.spawn_fallbacks"),
		active:     reg.Gauge("raja.pool.active_dispatches"),
	}
}

// Dispatch marks a parallel region in flight, counts a spawn fallback,
// and asks to time one pooled dispatch in dispatchSample.
func (m *PoolMetrics) Dispatch(lanes int, spawned bool) (timeDispatch, timeGranules bool) {
	m.active.Add(1)
	if spawned {
		m.fallbacks.Inc()
		return false, false
	}
	return m.seq.Add(1)&(dispatchSample-1) == 1, false
}

// Granule does nothing: the pool series are per dispatch.
func (m *PoolMetrics) Granule(lane, owner int, kind string, start time.Time, d time.Duration) {}

// Done ends the region, counts a pooled dispatch and records its latency
// when it was sampled.
func (m *PoolMetrics) Done(spawned bool, d time.Duration) {
	m.active.Add(-1)
	if spawned {
		return
	}
	m.dispatches.Inc()
	if d > 0 {
		m.dispatchNS.Observe(d.Nanoseconds())
	}
}
