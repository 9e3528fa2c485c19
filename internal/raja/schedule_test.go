package raja

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestScheduleEquivalence is the scheduling-equivalence conformance test:
// every front-end x Schedule x worker count x block size must cover each
// index of a Range exactly once, with the Ctx the schedule defines —
// including empty, single-element, and workers-exceed-size ranges — on
// the pooled and single-lane paths (the spawn fallback is
// TestScheduleEquivalenceOnSpawnFallback). A pool scheduling bug (lost
// chunk, double-grabbed block, mis-advanced cursor) or a front-end that
// reports another Ctx surfaces here as a deterministic failure.
func TestScheduleEquivalence(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()

	schedules := []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided}
	workerCounts := []int{1, 2, 3, 4, 7, 33}
	blocks := []int{0, 1, 7, 64}
	ranges := []Range{
		{0, 0},    // empty
		{5, 5},    // empty, nonzero origin
		{9, 3},    // reversed (empty)
		{0, 1},    // single element
		{41, 42},  // single element, nonzero origin
		{0, 2},    // fewer elements than most worker counts
		{0, 100},  //
		{17, 930}, // origin + non-multiple length
		{0, 4096},
	}

	for _, fe := range frontEnds {
		for _, kind := range []PolicyKind{Par, GPU} {
			for _, sched := range schedules {
				for _, workers := range workerCounts {
					for _, block := range blocks {
						for _, r := range ranges {
							p := Policy{Kind: kind, Workers: workers, Block: block,
								Schedule: sched, Pool: pool}
							name := fmt.Sprintf("%s/%v/%v/w%d/b%d/%v", fe.name, kind, sched, workers, block, r)
							checkCoverage(t, name, fe, p, r)
						}
					}
				}
			}
		}
	}
}

// frontEnd is one of the executor's entry points, reduced to a visit per
// index. run reports false when the entry point cannot express p's
// schedule: StaticChunks is static only and DynamicBlocks dynamic only.
// Forall shows each index its Ctx's Worker but not its granule.
// ForallSpan, StaticChunks and DynamicBlocks hand their body no Ctx:
// StaticChunks and DynamicBlocks show what they expose, the chunk index
// (as Worker and granule) and the block index (with Worker 0), and
// ForallSpan's granules are checked against scheduleCtx's granule
// boundaries.
type frontEnd struct {
	name string
	run  func(p Policy, r Range, visit func(at placed, i int)) bool
}

// placed is what a front-end shows of where an index ran: the Worker of
// its Ctx and the ordinal of its scheduling granule.
type placed struct{ Worker, Granule int }

// hidden marks a granule ordinal the front-end does not show, and
// straddles a ForallSpan granule that splits or straddles the schedule's
// granules, which checkCoverage rejects.
const (
	hidden    = -2
	straddles = -3
)

var frontEnds = []frontEnd{
	{"Forall", func(p Policy, r Range, visit func(placed, int)) bool {
		ForallRange(p, r, func(c Ctx, i int) { visit(placed{c.Worker, hidden}, i) })
		return true
	}},
	{"ForallSpan", func(p Policy, r Range, visit func(placed, int)) bool {
		// Each granule must be one whole chunk or block: it shows the place
		// scheduleCtx gives its first index, and straddles if that index
		// does not start a granule.
		want := scheduleCtx(p, r)
		ForallSpan(p, r.Len(), func(lo, hi int) {
			at := placed{max(want[lo].Worker, 0), want[lo].Granule}
			if lo > 0 && want[lo-1].Granule == at.Granule {
				at.Granule = straddles
			}
			for i := lo; i < hi; i++ {
				visit(at, r.Begin+i)
			}
		})
		return true
	}},
	{"StaticChunks", func(p Policy, r Range, visit func(placed, int)) bool {
		if p.schedule() != ScheduleStatic {
			return false
		}
		p.pool().StaticChunks(p.Workers, r.Len(), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				visit(placed{w, w}, r.Begin+i)
			}
		})
		return true
	}},
	{"DynamicBlocks", func(p Policy, r Range, visit func(placed, int)) bool {
		if p.schedule() != ScheduleDynamic {
			return false
		}
		p.pool().DynamicBlocks(p.Workers, p.Block, r.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				visit(placed{0, lo / p.block()}, r.Begin+i)
			}
		})
		return true
	}},
}

// checkCoverage runs fe over r under p and checks that every index runs
// exactly once, on a Worker below MaxWorkers, in the place scheduleCtx
// fixes.
func checkCoverage(t *testing.T, name string, fe frontEnd, p Policy, r Range) {
	t.Helper()
	n := r.Len()
	hits := make([]int32, n)
	ctxs := make([]placed, n)
	ran := fe.run(p, r, func(c placed, i int) {
		if i < r.Begin || i >= r.End {
			t.Errorf("%s: index %d outside range", name, i)
			return
		}
		if atomic.AddInt32(&hits[i-r.Begin], 1) == 1 {
			ctxs[i-r.Begin] = c
		}
	})
	if !ran {
		return
	}
	for k, h := range hits {
		if h != 1 {
			t.Fatalf("%s: index %d hit %d times, want exactly 1", name, r.Begin+k, h)
		}
	}
	maxWorker := p.MaxWorkers()
	for k, want := range scheduleCtx(p, r) {
		c := ctxs[k]
		if c.Worker < 0 || c.Worker >= maxWorker {
			t.Fatalf("%s: index %d saw Worker %d outside [0,%d)", name, r.Begin+k, c.Worker, maxWorker)
		}
		if (want.Worker >= 0 && c.Worker != want.Worker) ||
			(want.Granule >= 0 && c.Granule != hidden && c.Granule != want.Granule) {
			t.Fatalf("%s: index %d ran with %+v, want %+v", name, r.Begin+k, c, want)
		}
	}
}

// scheduleCtx is the schedules' definition of where each index of r runs
// under parallel policy p: the chunk index as Worker and granule under
// static, the block index under dynamic, and Worker 0 with the replayed
// granule sequence whenever a single lane takes part. -1 marks a field
// the race between lanes decides: the lane of a dynamic block, and the
// lane and grab ordinal of a multi-lane guided grab.
func scheduleCtx(p Policy, r Range) []placed {
	n := r.Len()
	want := make([]placed, n)
	if n == 0 {
		return want
	}
	workers := min(p.workers(), n)
	switch p.schedule() {
	case ScheduleStatic:
		chunk := (n + workers - 1) / workers
		for k := range want {
			want[k] = placed{k / chunk, k / chunk}
		}
	case ScheduleDynamic:
		block := p.block()
		worker := -1
		if min(workers, (n+block-1)/block) <= 1 {
			worker = 0
		}
		for k := range want {
			want[k] = placed{worker, k / block}
		}
	default:
		if workers > 1 {
			for k := range want {
				want[k] = placed{-1, -1}
			}
			break
		}
		for cur, g := 0, 0; cur < n; g++ {
			take := min(max((n-cur)/2, p.guidedMin()), n-cur)
			for k := cur; k < cur+take; k++ {
				want[k] = placed{0, g}
			}
			cur += take
		}
	}
	return want
}

// TestScheduleEquivalenceOnSpawnFallback repeats the coverage check with
// the pool closed, forcing every front-end and schedule through the
// goroutine-spawn fallback so both execution paths stay conformant.
func TestScheduleEquivalenceOnSpawnFallback(t *testing.T) {
	pool := NewPool(4)
	pool.Close()
	for _, fe := range frontEnds {
		for _, sched := range []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
			for _, r := range []Range{{0, 0}, {0, 1}, {3, 1000}} {
				for _, workers := range []int{2, 5} {
					p := Policy{Kind: Par, Workers: workers, Schedule: sched, Pool: pool}
					name := fmt.Sprintf("closed-pool/%s/%v/w%d/%v", fe.name, sched, workers, r)
					checkCoverage(t, name, fe, p, r)
				}
			}
		}
	}
}

// TestSchedulesAgreeOnReduction verifies ForallReduce and MultiReduceSum
// compute the same total under every schedule: their slots are private
// per Ctx.Worker, so any worker-index aliasing between schedules would
// corrupt the sum. Integer elements make the check exact regardless of
// accumulation order.
func TestSchedulesAgreeOnReduction(t *testing.T) {
	const n = 100_001
	want := int64(n) * int64(n-1) / 2
	elem := func(i int) int64 { return int64(i) }
	for _, kind := range []PolicyKind{Par, GPU} {
		for _, sched := range []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
			for _, workers := range []int{1, 3, 8} {
				p := Policy{Kind: kind, Workers: workers, Schedule: sched}
				if got := ForallReduce[int64](p, n, sumOf(elem, 0)); got != want {
					t.Errorf("%v/%v/w%d: ForallReduce sum = %d, want %d", kind, sched, workers, got, want)
				}
				m := NewMultiReduceSum[int64](p, 1)
				Forall(p, n, func(c Ctx, i int) { m.Add(c, 0, elem(i)) })
				got := make([]int64, 1)
				m.GetAll(got)
				if got[0] != want {
					t.Errorf("%v/%v/w%d: MultiReduceSum sum = %d, want %d", kind, sched, workers, got[0], want)
				}
			}
		}
	}
}
