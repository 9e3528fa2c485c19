package raja

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rajaperf/internal/telemetry"
)

// TestPoolTelemetry: a PoolMetrics observer records the dispatch
// counters; pooled dispatches and spawn fallbacks are attributed
// correctly.
func TestPoolTelemetry(t *testing.T) {
	reg := &telemetry.Registry{}
	pool := NewPool(4)
	defer pool.Close()
	pool.Observe(telemetry.NewPoolMetrics(reg))

	n := 10_000
	y := make([]float64, n)
	body := func(c Ctx, i int) { y[i]++ }
	p := Policy{Kind: Par, Workers: 4, Pool: pool}
	const dispatches = 17
	for i := 0; i < dispatches; i++ {
		Forall(p, n, body)
	}
	if got := reg.Counter("raja.pool.dispatches").Value(); got != dispatches {
		t.Errorf("raja.pool.dispatches = %d, want %d", got, dispatches)
	}
	// The latency histogram samples 1 in dispatchSample, starting with
	// the first dispatch: ordinals 1, 9, 17.
	if got := reg.Histogram("raja.pool.dispatch_ns").Snapshot().Count; got != 3 {
		t.Errorf("raja.pool.dispatch_ns count = %d, want 3 sampled of %d", got, dispatches)
	}

	// Nested parallel regions cannot re-enter the pool: each inner
	// dispatch is a counted spawn fallback.
	Forall(p, 2, func(c Ctx, i int) {
		inner := make([]float64, 100)
		Forall(p, 100, func(c Ctx, j int) { inner[j]++ })
	})
	if got := reg.Counter("raja.pool.spawn_fallbacks").Value(); got < 1 {
		t.Errorf("raja.pool.spawn_fallbacks = %d, want >= 1 from nesting", got)
	}

	if got := reg.Gauge("raja.pool.active_dispatches").Value(); got != 0 {
		t.Errorf("active_dispatches = %v at rest, want 0", got)
	}
}

// TestPoolActiveDispatchesCountsFallbacks: raja.pool.active_dispatches
// counts every parallel region in flight, spawn fallbacks included.
func TestPoolActiveDispatchesCountsFallbacks(t *testing.T) {
	active := func(reg *telemetry.Registry) float64 {
		for _, g := range reg.Snapshot().Gauges {
			if g.Name == "raja.pool.active_dispatches" {
				return g.Value
			}
		}
		t.Fatal("raja.pool.active_dispatches not registered")
		return 0
	}
	t.Run("closed_pool", func(t *testing.T) {
		reg := &telemetry.Registry{}
		pool := NewPool(2)
		pool.Observe(telemetry.NewPoolMetrics(reg))
		pool.Close()
		var inside [2]float64
		parent := active(reg)
		Forall(Policy{Kind: Par, Workers: 2, Pool: pool}, 2, func(c Ctx, i int) { inside[i] = active(reg) })
		if parent != 0 || inside != [2]float64{1, 1} {
			t.Errorf("closed pool: parent reads %v, body reads %v; want 0 and [1 1]", parent, inside)
		}
		if got := active(reg); got != 0 {
			t.Errorf("closed pool: %v at rest, want 0", got)
		}
	})
	t.Run("nested_in_pooled", func(t *testing.T) {
		reg := &telemetry.Registry{}
		pool := NewPool(2)
		defer pool.Close()
		pool.Observe(telemetry.NewPoolMetrics(reg))
		p := Policy{Kind: Par, Workers: 2, Pool: pool}
		var parent float64
		var inner [2]float64
		Forall(p, 2, func(c Ctx, i int) {
			if i != 0 {
				return
			}
			parent = active(reg)
			Forall(p, 2, func(c Ctx, j int) { inner[j] = active(reg) })
		})
		if parent != 1 || inner != [2]float64{2, 2} {
			t.Errorf("nested: parent reads %v, inner body reads %v; want 1 and [2 2]", parent, inner)
		}
		if got := active(reg); got != 0 {
			t.Errorf("nested: %v at rest, want 0", got)
		}
	})
}

// TestObserveWhileDispatching adds and stops observers while two other
// goroutines dispatch on the pool, one of them mostly on the spawn
// fallback (run under -race): every Dispatch an observer hears ends in a
// Done, each observer gets only the timing it asked for, and once the
// dispatches in flight at stop have finished, a stopped observer hears
// nothing more.
func TestObserveWhileDispatching(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	p := Policy{Kind: Par, Workers: 4, Pool: pool}

	var completed [2]atomic.Int64
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for g := range completed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, 1000)
			for {
				select {
				case <-quit:
					return
				default:
				}
				Forall(p, len(y), func(c Ctx, i int) { y[i]++ })
				completed[g].Add(1)
			}
		}()
	}
	// settle waits until both dispatching goroutines have finished two
	// more dispatches: the one in flight now and one begun after it.
	settle := func() {
		var want [2]int64
		for g := range completed {
			want[g] = completed[g].Load() + 2
		}
		for g := range completed {
			for completed[g].Load() < want[g] {
				runtime.Gosched()
			}
		}
	}

	for i := 0; i < 30; i++ {
		rs := []*recorder{
			{timeDispatch: true},
			{timeGranules: true},
			{timeDispatch: true, timeGranules: true},
		}
		stops := make([]func(), len(rs))
		for k, r := range rs {
			stops[k] = pool.Observe(r)
		}
		settle()
		for k, r := range rs {
			stops[k]()
			stops[k]() // stop is idempotent
			settle()
			heard := r.dispatches.Load()
			if heard == 0 || r.dones.Load() != heard {
				t.Fatalf("round %d observer %d: %d dispatches, %d dones; want equal and > 0",
					i, k, heard, r.dones.Load())
			}
			// Observers that asked for different timing share every
			// dispatch; each gets only what it asked for.
			wantTimed := int64(0)
			if r.timeDispatch {
				wantTimed = heard
			}
			if got := r.timedDones.Load(); got != wantTimed {
				t.Fatalf("round %d observer %d: %d timed dones of %d, want %d", i, k, got, heard, wantTimed)
			}
			if got := r.granules.Load(); (got > 0) != r.timeGranules {
				t.Fatalf("round %d observer %d asked timeGranules=%v, heard %d granules",
					i, k, r.timeGranules, got)
			}
			settle()
			if got := r.dispatches.Load(); got != heard {
				t.Fatalf("round %d observer %d: heard %d dispatches after stop", i, k, got-heard)
			}
		}
	}
	close(quit)
	wg.Wait()
}

// BenchmarkPoolDispatchTelemetry is the overhead gate's measurement: the
// same empty-body dispatch as BenchmarkPoolDispatch without observers
// (one atomic pointer load) and observed by a PoolMetrics (three atomic
// updates and, on one dispatch in eight, two clock reads).
// EXPERIMENTS.md records the delta against BenchmarkForallPar, where the
// budget is <= 1% of a real kernel dispatch.
func BenchmarkPoolDispatchTelemetry(b *testing.B) {
	body := func(c Ctx, i int) {}
	lanes := 2 * max(2, runtime.GOMAXPROCS(0))
	n := 64 * lanes
	run := func(b *testing.B, enable bool) {
		pool := NewPool(lanes)
		defer pool.Close()
		if enable {
			pool.Observe(telemetry.NewPoolMetrics(&telemetry.Registry{}))
		}
		p := Policy{Kind: Par, Workers: lanes, Pool: pool}
		Forall(p, n, body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Forall(p, n, body)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// TestDispatchTelemetryOverheadPaired measures the telemetry cost as a
// paired difference — alternating off/on batches on the same two pools
// within one process — because back-to-back benchmark batches on a
// shared machine drift by more than the signal. The median paired delta
// is the number EXPERIMENTS.md records against the ≤1% budget; the
// in-test gate is deliberately loose (an order of magnitude above the
// expected cost) so scheduler noise cannot flake CI while a genuine
// regression — say an unsampled time.Now pair per granule — still trips.
func TestDispatchTelemetryOverheadPaired(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement skipped in -short mode")
	}
	lanes := 2 * max(2, runtime.GOMAXPROCS(0))
	n := 64 * lanes
	body := func(c Ctx, i int) {}

	off := NewPool(lanes)
	defer off.Close()
	on := NewPool(lanes)
	defer on.Close()
	on.Observe(telemetry.NewPoolMetrics(&telemetry.Registry{}))
	pOff := Policy{Kind: Par, Workers: lanes, Pool: off}
	pOn := Policy{Kind: Par, Workers: lanes, Pool: on}
	Forall(pOff, n, body)
	Forall(pOn, n, body)

	const rounds, batch = 21, 2000
	deltas := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			Forall(pOff, n, body)
		}
		t1 := time.Now()
		for i := 0; i < batch; i++ {
			Forall(pOn, n, body)
		}
		t2 := time.Now()
		deltas = append(deltas, (t2.Sub(t1)-t1.Sub(t0)).Seconds()*1e9/batch)
	}
	sort.Float64s(deltas)
	median := deltas[rounds/2]
	t.Logf("paired dispatch delta: median %+.0f ns/dispatch (min %+.0f, max %+.0f)",
		median, deltas[0], deltas[rounds-1])
	if median > 1000 {
		t.Errorf("telemetry adds %.0f ns per dispatch, an order of magnitude over budget", median)
	}
}
