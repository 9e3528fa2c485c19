package raja

import (
	"sync/atomic"
	"testing"
	"time"
)

// triangularBody returns a body whose per-index cost grows linearly with
// the index — deliberately skewed work that static chunking must
// misbalance (the last chunk holds the most expensive indices) and
// dynamic/guided scheduling should smooth out. The cost is a sleep, not
// a spin: sleeping lanes release the CPU, so the lanes genuinely overlap
// and per-lane busy time reflects assigned work even on a single-core
// CI machine where spinning lanes would just time-slice.
func triangularBody(sink *[]float64) Body {
	y := *sink
	return func(c Ctx, i int) {
		time.Sleep(time.Duration(i) * 100 * time.Microsecond)
		y[i] = 1
	}
}

// runSkewed executes the triangular workload under sched on a pool
// observed by fresh lane statistics and returns the measured imbalance.
// When spawned is true the pool is closed first, forcing the
// spawn-fallback dispatch path (which must be observed identically).
func runSkewed(t *testing.T, sched Schedule, spawned bool) Imbalance {
	t.Helper()
	const lanes, n = 4, 64
	pool := NewPool(lanes)
	defer pool.Close()
	stats := NewLaneStats(lanes)
	pool.Observe(stats)
	if spawned {
		pool.Close()
	}
	y := make([]float64, n)
	p := Policy{Kind: Par, Workers: lanes, Schedule: sched, Block: 4, Pool: pool}
	Forall(p, n, triangularBody(&y))
	for i := range y {
		if y[i] == 0 {
			t.Fatalf("schedule %v: index %d not executed", sched, i)
		}
	}
	return stats.Imbalance()
}

// TestImbalanceSkewedSchedules is the load-imbalance conformance check:
// triangular work shows large imbalance under static chunking that
// shrinks under dynamic and guided scheduling, on both the pooled and
// the spawn-fallback paths.
func TestImbalanceSkewedSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive imbalance measurement")
	}
	for _, path := range []struct {
		name    string
		spawned bool
	}{{"pooled", false}, {"spawned", true}} {
		t.Run(path.name, func(t *testing.T) {
			static := runSkewed(t, ScheduleStatic, path.spawned)
			dynamic := runSkewed(t, ScheduleDynamic, path.spawned)
			guided := runSkewed(t, ScheduleGuided, path.spawned)
			t.Logf("%s: static %.1f%%, dynamic %.1f%%, guided %.1f%%",
				path.name, static.Pct, dynamic.Pct, guided.Pct)
			// Triangular work over 4 static chunks puts ~7x more work on
			// the last lane than the first: max/avg = 1.75, i.e. ~43%
			// imbalance. Allow wide scheduling noise.
			if static.Pct < 20 {
				t.Errorf("static imbalance = %.1f%%, want the skew visible (>= 20%%)", static.Pct)
			}
			if dynamic.Pct >= static.Pct {
				t.Errorf("dynamic imbalance %.1f%% did not shrink below static %.1f%%",
					dynamic.Pct, static.Pct)
			}
			if guided.Pct >= static.Pct {
				t.Errorf("guided imbalance %.1f%% did not shrink below static %.1f%%",
					guided.Pct, static.Pct)
			}
			if static.Steals != 0 {
				t.Errorf("static scheduling reported %d steals, want 0", static.Steals)
			}
		})
	}
}

// TestInstrGranuleAccounting pins the granule, wake, and steal counters
// to the schedule arithmetic.
func TestInstrGranuleAccounting(t *testing.T) {
	const lanes = 4
	pool := NewPool(lanes)
	defer pool.Close()
	y := make([]float64, 1000)
	body := func(c Ctx, i int) { y[i]++ }
	measure := func(p Policy) Imbalance {
		stats := NewLaneStats(lanes)
		defer pool.Observe(stats)()
		Forall(p, 1000, body)
		return stats.Imbalance()
	}

	im := measure(Policy{Kind: Par, Workers: lanes, Pool: pool})
	if im.Granules != lanes {
		t.Errorf("static granules = %d, want %d chunks", im.Granules, lanes)
	}
	if im.Steals != 0 {
		t.Errorf("static steals = %d, want 0", im.Steals)
	}
	if im.Wakes != lanes {
		t.Errorf("static wakes = %d, want %d", im.Wakes, lanes)
	}

	im = measure(Policy{Kind: GPU, Workers: lanes, Block: 100, Pool: pool})
	if im.Granules != 10 {
		t.Errorf("dynamic granules = %d, want 10 blocks", im.Granules)
	}
	if im.Wakes != lanes {
		t.Errorf("dynamic wakes = %d, want %d", im.Wakes, lanes)
	}
}

// recorder is a test Observer that counts its events and asks for the
// timing it is set up with.
type recorder struct {
	timeDispatch, timeGranules bool

	dispatches, granules, dones, timedDones atomic.Int64
}

func (r *recorder) Dispatch(int, bool) (bool, bool) {
	r.dispatches.Add(1)
	return r.timeDispatch, r.timeGranules
}

func (r *recorder) Granule(int, int, string, time.Time, time.Duration) { r.granules.Add(1) }

func (r *recorder) Done(_ bool, d time.Duration) {
	r.dones.Add(1)
	if d > 0 {
		r.timedDones.Add(1)
	}
}

// granuleFunc is a test Observer that asks for granule timing and hands
// every granule to the function.
type granuleFunc func(lane, owner int, kind string, start time.Time, d time.Duration)

func (f granuleFunc) Dispatch(int, bool) (bool, bool) { return false, true }

func (f granuleFunc) Granule(lane, owner int, kind string, start time.Time, d time.Duration) {
	f(lane, owner, kind, start, d)
}

func (f granuleFunc) Done(bool, time.Duration) {}

// TestInstrDisabledCostsNothing verifies that an observer gets no timing
// it did not ask for — no Granule call and a zero dispatch duration — and
// that lane statistics stop recording when their observer is stopped.
func TestInstrDisabledCostsNothing(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	y := make([]float64, 100)
	p := Policy{Kind: Par, Workers: 2, Pool: pool}
	body := func(c Ctx, i int) { y[i]++ }

	quiet := &recorder{}
	stop := pool.Observe(quiet)
	Forall(p, 100, body)
	stop()
	if d, g, e, td := quiet.dispatches.Load(), quiet.granules.Load(), quiet.dones.Load(),
		quiet.timedDones.Load(); d != 1 || e != 1 || g != 0 || td != 0 {
		t.Errorf("untimed observer: %d dispatches, %d dones, %d granules, %d timed dones; want 1, 1, 0, 0",
			d, e, g, td)
	}

	stats := NewLaneStats(2)
	stop = pool.Observe(stats)
	Forall(p, 100, body)
	stop()
	im := stats.Imbalance()
	if im.Granules == 0 {
		t.Error("observed dispatch recorded no granules")
	}
	Forall(p, 100, body)
	if got := stats.Imbalance(); got != im {
		t.Errorf("stopped lane statistics still recorded: %+v, then %+v", im, got)
	}
}

// TestLaneStatsImbalanceUnit checks the imbalance arithmetic directly.
func TestLaneStatsImbalanceUnit(t *testing.T) {
	s := NewLaneStats(3)
	s.Dispatch(2, false)
	for i := 0; i < 4; i++ {
		s.Granule(0, i%2, granuleBlock, time.Time{}, time.Second)
	}
	for i := 0; i < 2; i++ {
		s.Granule(1, 1, granuleBlock, time.Time{}, time.Second)
	}
	im := s.Imbalance() // lane 2 idle: excluded
	if im.Lanes != 2 {
		t.Errorf("lanes = %d, want 2 (idle excluded)", im.Lanes)
	}
	if im.Max != 4*time.Second || im.Min != 2*time.Second || im.Avg != 3*time.Second {
		t.Errorf("max/min/avg = %v/%v/%v", im.Max, im.Min, im.Avg)
	}
	if im.Pct != 25 {
		t.Errorf("pct = %v, want 25", im.Pct)
	}
	if im.Granules != 6 || im.Steals != 2 || im.Wakes != 2 {
		t.Errorf("granules/steals/wakes = %d/%d/%d, want 6/2/2", im.Granules, im.Steals, im.Wakes)
	}
	balanced := NewLaneStats(2)
	balanced.Granule(0, 0, granuleChunk, time.Time{}, time.Second)
	balanced.Granule(1, 1, granuleChunk, time.Time{}, time.Second)
	if pct := balanced.Imbalance().Pct; pct != 0 {
		t.Errorf("balanced pct = %v, want 0", pct)
	}
	if empty := NewLaneStats(2).Imbalance(); empty != (Imbalance{}) {
		t.Errorf("empty imbalance = %+v", empty)
	}
}

// TestLaneTraceHook verifies that an observer asking for granule timing
// hears once per scheduling granule on pooled and spawned paths,
// concurrently safely, and not after it is stopped.
func TestLaneTraceHook(t *testing.T) {
	const lanes = 4
	pool := NewPool(lanes)
	defer pool.Close()
	var events atomic.Int64
	stop := pool.Observe(granuleFunc(func(lane, owner int, kind string, start time.Time, d time.Duration) {
		if kind != granuleBlock {
			t.Errorf("granule kind = %q, want %q", kind, granuleBlock)
		}
		events.Add(1)
	}))
	y := make([]float64, 1000)
	body := func(c Ctx, i int) { y[i]++ }
	Forall(Policy{Kind: GPU, Workers: lanes, Block: 100, Pool: pool}, 1000, body)
	if got := events.Load(); got != 10 {
		t.Errorf("pooled trace events = %d, want 10 blocks", got)
	}

	events.Store(0)
	pool.Close() // force the spawn fallback
	Forall(Policy{Kind: GPU, Workers: lanes, Block: 100, Pool: pool}, 1000, body)
	if got := events.Load(); got != 10 {
		t.Errorf("spawned trace events = %d, want 10 blocks", got)
	}

	stop()
	events.Store(0)
	Forall(Policy{Kind: GPU, Workers: lanes, Block: 100, Pool: pool}, 1000, body)
	if got := events.Load(); got != 0 {
		t.Errorf("stopped observer still heard %d granules", got)
	}
}
