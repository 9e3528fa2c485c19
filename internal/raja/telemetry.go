package raja

// Pool telemetry: dispatch-level metrics recorded into a
// telemetry.Registry. The hook is an atomic pointer so enabling it is
// safe while the pool is running, exactly like the Instr and LaneTrace
// services; a pool with telemetry off pays one atomic load per dispatch
// (not per granule). With telemetry on, the dispatch counter and
// in-flight gauge are exact (three uncontended atomic adds), while the
// latency histogram samples one dispatch in dispatchSample — the two
// time.Now calls dominate the per-dispatch cost, and sampling them keeps
// the amortized overhead inside the ≤1% budget that
// BenchmarkPoolDispatchTelemetry measures against BenchmarkForallPar.

import (
	"strconv"
	"sync/atomic"
	"time"

	"rajaperf/internal/telemetry"
)

// dispatchSample is the latency sampling rate: 1 in 8 dispatches times
// its dispatch-to-completion window. Power of two, so the selection is a
// mask test; the first dispatch after enable is always sampled.
const dispatchSample = 8

// poolTele bundles the dispatch-path metric handles, resolved once at
// EnableTelemetry time so the hot path performs zero name lookups.
type poolTele struct {
	dispatches *telemetry.Counter   // pooled dispatches completed (exact)
	dispatchNS *telemetry.Histogram // sampled dispatch-to-completion latency, ns
	fallbacks  *telemetry.Counter   // dispatches that fell back to spawning
	seq        atomic.Uint64        // dispatch ordinal driving the sampler
}

// EnableTelemetry wires this pool's dispatch metrics and liveness gauges
// into reg (nil = telemetry.Default()):
//
//   - raja.pool.dispatches / raja.pool.dispatch_ns — pooled dispatches
//     (exact) and their dispatch-to-completion latency (sampled 1 in
//     dispatchSample, so the histogram count is ~1/8 of the counter);
//   - raja.pool.spawn_fallbacks — dispatches that found the pool busy,
//     closed, or nested, and spawned goroutines instead;
//   - raja.pool.active_dispatches — parallel regions in flight right now
//     (pooled or spawned);
//   - raja.pool.heartbeat, raja.pool.lanes — the liveness counter the
//     watchdogs sample, and the lane count;
//   - raja.pool.busy_sec / granules / steals / lane_busy_sec{lane=...} /
//     lane_steals{lane=...} — utilization and work-stealing totals from
//     the Instr service (zero until Instrument(true)).
//
// Counter and histogram handles are shared by name, so several pools
// enabling telemetry against the same registry aggregate naturally; the
// callback gauges describe one pool and are last-writer-wins — wire them
// from the process's primary pool (the CLIs use Default()).
func (p *Pool) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.Default()
	}
	p.EnableDispatchTelemetry(reg)
	reg.GaugeFunc("raja.pool.heartbeat", func() float64 { return float64(p.Heartbeat()) })
	reg.GaugeFunc("raja.pool.lanes", func() float64 { return float64(p.Lanes()) })
	reg.GaugeFunc("raja.pool.active_dispatches", func() float64 { return float64(p.active.Load()) })
	reg.GaugeFunc("raja.pool.busy_sec", func() float64 {
		var busy time.Duration
		for _, l := range p.InstrSnapshot() {
			busy += l.Busy
		}
		return busy.Seconds()
	})
	reg.GaugeFunc("raja.pool.granules", func() float64 {
		var n int64
		for _, l := range p.InstrSnapshot() {
			n += l.Granules
		}
		return float64(n)
	})
	reg.GaugeFunc("raja.pool.steals", func() float64 {
		var n int64
		for _, l := range p.InstrSnapshot() {
			n += l.Steals
		}
		return float64(n)
	})
	for lane := 0; lane < p.lanes; lane++ {
		lane := lane
		reg.GaugeFunc(telemetry.Name("raja.pool.lane_busy_sec", "lane", strconv.Itoa(lane)), func() float64 {
			if s := p.InstrSnapshot(); lane < len(s) {
				return s[lane].Busy.Seconds()
			}
			return 0
		})
		reg.GaugeFunc(telemetry.Name("raja.pool.lane_steals", "lane", strconv.Itoa(lane)), func() float64 {
			if s := p.InstrSnapshot(); lane < len(s) {
				return float64(s[lane].Steals)
			}
			return 0
		})
	}
}

// EnableDispatchTelemetry wires only the shared dispatch counters and
// latency histogram — no callback gauges — so short-lived pools (the
// campaign's per-run executors) aggregate into the same
// raja.pool.dispatches / dispatch_ns / spawn_fallbacks series without
// registering per-pool gauges they would outlive.
func (p *Pool) EnableDispatchTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.Default()
	}
	p.tele.Store(&poolTele{
		dispatches: reg.Counter("raja.pool.dispatches"),
		dispatchNS: reg.Histogram("raja.pool.dispatch_ns"),
		fallbacks:  reg.Counter("raja.pool.spawn_fallbacks"),
	})
}

// fallbackStart counts a spawn-fallback dispatch and marks it in flight
// (telemetry on only); it reports whether the caller must decrement
// p.active when the region ends.
func (p *Pool) fallbackStart() bool {
	t := p.tele.Load()
	if t == nil {
		return false
	}
	t.fallbacks.Inc()
	p.active.Add(1)
	return true
}

// dispatchStart opens a dispatch measurement window; dispatchEnd closes
// it. Both are nil-cheap: telemetry off costs one atomic pointer load.
// A zero start time means this dispatch was not selected for latency
// sampling — the counters still record it.
func (p *Pool) dispatchStart() (*poolTele, time.Time) {
	t := p.tele.Load()
	if t == nil {
		return nil, time.Time{}
	}
	p.active.Add(1)
	if t.seq.Add(1)&(dispatchSample-1) != 1 {
		return t, time.Time{}
	}
	return t, time.Now()
}

func (p *Pool) dispatchEnd(t *poolTele, start time.Time) {
	if t == nil {
		return
	}
	t.dispatches.Inc()
	if !start.IsZero() {
		t.dispatchNS.Observe(time.Since(start).Nanoseconds())
	}
	p.active.Add(-1)
}
