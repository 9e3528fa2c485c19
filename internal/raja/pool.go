package raja

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Schedule selects how a parallel policy maps iterations onto executor
// lanes, mirroring OpenMP's schedule clause.
type Schedule int

const (
	// ScheduleDefault resolves to ScheduleStatic under Par and
	// ScheduleDynamic under GPU, the shapes the suite's back-ends model.
	ScheduleDefault Schedule = iota
	// ScheduleStatic assigns one contiguous chunk per worker up front
	// (OpenMP schedule(static)). Ctx.Worker is the chunk index, so lane
	// assignment — and therefore reduction rounding — is deterministic.
	ScheduleStatic
	// ScheduleDynamic hands out fixed-size blocks from a shared cursor
	// (OpenMP schedule(dynamic, block); the GPU grid shape). Block size
	// comes from Policy.Block.
	ScheduleDynamic
	// ScheduleGuided hands out exponentially shrinking grabs — half the
	// remaining work divided among lanes, never less than the minimum
	// grab — trading dispatch overhead against load balance (OpenMP
	// schedule(guided)).
	ScheduleGuided
)

// String returns the OpenMP-style schedule name.
func (s Schedule) String() string {
	switch s {
	case ScheduleDefault:
		return "default"
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	default:
		return "unknown"
	}
}

// ParseSchedule returns the Schedule named by s ("default", "static",
// "dynamic", "guided").
func ParseSchedule(s string) (Schedule, bool) {
	for sc := ScheduleDefault; sc <= ScheduleGuided; sc++ {
		if sc.String() == s {
			return sc, true
		}
	}
	return ScheduleDefault, false
}

// GuidedMinGrab is the smallest index span the guided schedule hands a
// lane when Policy.Block does not override it. Small enough that short
// ranges still balance, large enough that the grab CAS is amortized.
const GuidedMinGrab = 32

// Pool is a persistent worker-pool executor for the parallel back-ends.
// A pool of n lanes keeps n-1 goroutines parked on per-worker wake
// channels; the caller of a parallel region participates as lane 0, so a
// dispatch costs two channel operations per helper lane instead of a
// goroutine spawn per chunk. One dispatch runs at a time; concurrent or
// nested parallel regions fall back to running the same lane loops on
// fresh goroutines (see spawnLanes), which keeps the pool deadlock-free
// without a scheduler.
//
// Workers start lazily on the first dispatch and park between dispatches,
// so an idle Pool costs nothing but its struct. Close releases the
// workers; a closed pool's callers take the spawn fallback.
type Pool struct {
	lanes   int
	mu      sync.Mutex
	started bool
	closed  bool
	workers []poolWorker
	done    chan struct{}
	task    poolTask

	// Observability services (see instr.go): per-lane statistics for
	// the load-imbalance service and the per-granule trace hook. Both
	// are read atomically at dispatch time, so enabling them is safe
	// while the pool is running, and both apply to the spawn fallback
	// as well as pooled dispatches.
	instr   atomic.Pointer[Instr]
	instrOn atomic.Bool
	trace   atomic.Pointer[LaneTrace]

	// tele is the dispatch-level telemetry hook (see telemetry.go): nil
	// until EnableTelemetry, read atomically once per dispatch. active
	// tracks parallel regions in flight for the queue-depth gauge.
	tele   atomic.Pointer[poolTele]
	active atomic.Int64

	// beats is the pool's liveness counter: it advances once per executed
	// scheduling granule of every multi-lane dispatch, pooled or on the
	// spawn fallback; single-lane dispatches run inline and do not beat.
	// Unlike the Instr service it is always on — a single atomic add per
	// granule — so run watchdogs can distinguish a hung dispatch (beats
	// frozen) from a slow one (beats advancing) without enabling
	// instrumentation.
	beats atomic.Int64
}

// Heartbeat returns the pool's monotonic activity counter. Two equal
// reads separated by a sampling interval mean no scheduling granule
// completed in between — the hung-run signal resilience watchdogs key on.
func (p *Pool) Heartbeat() int64 { return p.beats.Load() }

type poolWorker struct {
	wake chan struct{}
}

// spanWork is the work of one dispatch: runSpan executes the half-open
// span [lo, hi) of one scheduling granule under the Ctx the schedule
// gives it. Every front-end supplies it as a func type with a runSpan
// method (Body, spanFunc, chunkFunc, blockFunc) — a func value converts
// to an interface without allocating — so the lane loops make one
// indirect call per granule and never branch on the shape of the body.
type spanWork interface {
	runSpan(c Ctx, lo, hi int)
}

// chunkFunc is the StaticChunks skeleton body: Ctx.Worker is the chunk
// index under the static schedule.
type chunkFunc func(w, lo, hi int)

func (f chunkFunc) runSpan(c Ctx, lo, hi int) { f(c.Worker, lo, hi) }

// blockFunc is the body of ForallSpan and of the DynamicBlocks skeleton:
// the span alone, without a Ctx.
type blockFunc func(lo, hi int)

func (f blockFunc) runSpan(_ Ctx, lo, hi int) { f(lo, hi) }

// poolTask is one multi-lane dispatch: its one work field, the granule
// geometry, and the cursors the lanes share. The pool reuses a single
// task for every pooled dispatch, so the steady-state path performs zero
// allocations; the spawn fallback and the single-lane walk use a task of
// their own. On the pool, the dispatching goroutine writes the task
// before the wake sends and workers read it after their wake receives;
// the channel operations order the accesses.
type poolTask struct {
	sched   Schedule
	work    spanWork
	r       Range
	lanes   int
	size    int // static: chunk size; dynamic: block size; guided: minimum grab
	cursor  atomic.Int64
	grabs   atomic.Int64 // guided: grab ordinal, for steal accounting
	pending atomic.Int32

	// Observability, captured once per dispatch so one dispatch sees one
	// consistent configuration. All nil on the single-lane walk; instr
	// and trace are nil when their services are off, keeping the
	// uninstrumented hot path to a pair of nil checks per granule.
	instr *Instr
	trace LaneTrace
	beats *atomic.Int64 // the owning pool's heartbeat counter
}

// NewPool returns a pool with n execution lanes (n-1 parked goroutines
// plus the dispatching caller). n <= 0 means runtime.GOMAXPROCS(0).
// Workers are not started until the first dispatch.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{lanes: n, done: make(chan struct{}, 1)}
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// Default returns the shared GOMAXPROCS-sized pool used by parallel
// policies whose Policy.Pool is nil. It is created lazily and its workers
// start on the first parallel dispatch.
func Default() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// Lanes reports the pool's execution-lane count.
func (p *Pool) Lanes() int { return p.lanes }

// Close parks the pool permanently: its workers exit and subsequent
// dispatches take the spawn fallback. Close waits for an in-flight
// dispatch to finish and is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.started {
		for i := range p.workers {
			close(p.workers[i].wake)
		}
	}
}

// startLocked spawns the parked workers. Caller holds p.mu.
func (p *Pool) startLocked() {
	p.workers = make([]poolWorker, p.lanes-1)
	for i := range p.workers {
		p.workers[i].wake = make(chan struct{}, 1)
		go p.workerLoop(i)
	}
	p.started = true
}

func (p *Pool) workerLoop(id int) {
	w := &p.workers[id]
	for range w.wake {
		p.task.runLane(id + 1)
		if p.task.pending.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}
}

// acquire claims the pool for one dispatch. It fails — and the caller
// must take the spawn fallback — when the pool has a single lane, is
// closed, or is already mid-dispatch (a concurrent Forall from another
// goroutine, or a nested parallel region issued from inside a pool
// worker; blocking in either case could deadlock every lane).
func (p *Pool) acquire() bool {
	if p.lanes < 2 || !p.mu.TryLock() {
		return false
	}
	if p.closed {
		p.mu.Unlock()
		return false
	}
	if !p.started {
		p.startLocked()
	}
	return true
}

// dispatch is the executor's one dispatch core; every parallel entry
// point lowers onto it. It cuts r into sched's granules for up to
// workers lanes (workers <= 0 means GOMAXPROCS; size is the dynamic
// block or the guided minimum grab, and static ignores it), then runs
// the lane loops: inline on the caller when only one lane would take
// part, on the parked workers when the pool can be acquired, and on
// fresh goroutines otherwise. It returns the number of lanes the
// schedule was sized for, which under static is the chunk count.
func (p *Pool) dispatch(sched Schedule, workers, size int, r Range, w spanWork) int {
	n := r.Len()
	if n == 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lanes := min(workers, n)
	switch sched {
	case ScheduleStatic:
		size = (n + lanes - 1) / lanes
		lanes = (n + size - 1) / size
	case ScheduleDynamic:
		lanes = min(workers, (n+size-1)/size)
	}
	if lanes <= 1 {
		// The single-lane walk replays the multi-lane granule sequence
		// (one chunk, every block in order, the guided grabs) without
		// observability services.
		t := poolTask{sched: sched, work: w, r: r, lanes: 1, size: size}
		t.runLane(0)
		return 1
	}
	if !p.acquire() {
		p.spawnLanes(&poolTask{sched: sched, work: w, r: r, lanes: lanes, size: size})
		return lanes
	}
	t := &p.task
	t.sched, t.work, t.r, t.size = sched, w, r, size
	t.lanes = min(lanes, p.lanes)
	if sched != ScheduleStatic { // static lanes stride chunks, no cursor
		t.cursor.Store(0)
		t.grabs.Store(0)
	}
	t.instr, t.trace, t.beats = p.activeInstr(), p.activeTrace(), &p.beats
	tele, start := p.dispatchStart()
	t.pending.Store(int32(t.lanes - 1))
	for i := 0; i < t.lanes-1; i++ {
		p.workers[i].wake <- struct{}{}
	}
	t.runLane(0)
	<-p.done
	t.work, t.instr, t.trace = nil, nil, nil
	p.mu.Unlock()
	p.dispatchEnd(tele, start)
	return lanes
}

// spawnLanes is the fallback for a dispatch that cannot have the pool
// (busy, nested, closed, or single-lane): it runs the same lane loops on
// t, one fresh goroutine per lane, with the pool's instrumentation,
// trace and heartbeat wired exactly as on the pooled path.
func (p *Pool) spawnLanes(t *poolTask) {
	if p.fallbackStart() {
		defer p.active.Add(-1)
	}
	t.instr, t.trace, t.beats = p.activeInstr(), p.activeTrace(), &p.beats
	var wg sync.WaitGroup
	wg.Add(t.lanes)
	for lane := 0; lane < t.lanes; lane++ {
		go func() {
			defer wg.Done()
			t.runLane(lane)
		}()
	}
	wg.Wait()
}

// StaticChunks executes f over one contiguous chunk of [0, n) per worker
// — the hand-written fork-join skeleton of the Base_OpenMP variants —
// and returns the number of chunks dispatched. f receives the dense chunk
// index w. Workers of zero means all cores. It shares the dispatch core,
// spawn fallback included, with a static-scheduled Forall.
func (p *Pool) StaticChunks(workers, n int, f func(w, lo, hi int)) int {
	return p.dispatch(ScheduleStatic, workers, 0, RangeN(n), chunkFunc(f))
}

// DynamicBlocks executes f over fixed-size blocks of [0, n) scheduled
// dynamically across workers — the hand-written skeleton of the Base_GPU
// variants. Block of zero means DefaultBlock; workers of zero means all
// cores. A single lane still walks the range block by block, so f
// observes the same block-granular call pattern at every worker count.
func (p *Pool) DynamicBlocks(workers, block, n int, f func(lo, hi int)) {
	if block <= 0 {
		block = DefaultBlock
	}
	p.dispatch(ScheduleDynamic, workers, block, RangeN(n), blockFunc(f))
}

// runLane executes one lane's share of the task.
func (t *poolTask) runLane(lane int) {
	if t.instr != nil {
		t.instr.wake(lane)
	}
	switch t.sched {
	case ScheduleStatic:
		t.runStatic(lane)
	case ScheduleGuided:
		t.runGuided(lane)
	default:
		t.runDynamic(lane)
	}
}

// runStatic walks chunks lane, lane+lanes, ... so every chunk executes
// exactly once even when there are more chunks than lanes, and chunk w
// always reports Ctx.Worker == w regardless of which lane ran it.
func (t *poolTask) runStatic(lane int) {
	chunks := (t.r.Len() + t.size - 1) / t.size
	for w := lane; w < chunks; w += t.lanes {
		lo := t.r.Begin + w*t.size
		// Chunk w's static owner is lane w%lanes == lane: static
		// scheduling never steals.
		t.runGranule(lane, lane, granuleChunk, Ctx{Worker: w}, lo, min(lo+t.size, t.r.End))
	}
}

// runDynamic hands out fixed-size blocks from the shared cursor.
func (t *poolTask) runDynamic(lane int) {
	blocks := (t.r.Len() + t.size - 1) / t.size
	for {
		b := int(t.cursor.Add(1) - 1)
		if b >= blocks {
			return
		}
		lo := t.r.Begin + b*t.size
		t.runGranule(lane, b%t.lanes, granuleBlock, Ctx{Worker: lane}, lo, min(lo+t.size, t.r.End))
	}
}

// runGuided grabs half the remaining range split across lanes, floored
// at the minimum grab.
func (t *poolTask) runGuided(lane int) {
	n := int64(t.r.Len())
	for {
		cur := t.cursor.Load()
		if cur >= n {
			return
		}
		take := min(max((n-cur)/int64(2*t.lanes), int64(t.size)), n-cur)
		if !t.cursor.CompareAndSwap(cur, cur+take) {
			continue
		}
		g := int(t.grabs.Add(1) - 1)
		lo := t.r.Begin + int(cur)
		t.runGranule(lane, g%t.lanes, granuleGrab, Ctx{Worker: lane}, lo, lo+int(take))
	}
}

// runGranule executes one granule and records it: a heartbeat, and into
// the instrumentation and trace services when they are on. owner is the
// lane a static round-robin assignment would have given the granule.
func (t *poolTask) runGranule(lane, owner int, kind string, c Ctx, lo, hi int) {
	measured := t.instr != nil || t.trace != nil
	var start time.Time
	if measured {
		start = time.Now()
	}
	t.work.runSpan(c, lo, hi)
	if t.beats != nil {
		t.beats.Add(1)
	}
	if !measured {
		return
	}
	d := time.Since(start)
	if t.instr != nil {
		t.instr.granule(lane, owner, d)
	}
	if t.trace != nil {
		t.trace(lane, kind, start, d)
	}
}
