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
// ForallSpan, StaticChunks and DynamicBlocks hand their body no Ctx:
// StaticChunks and DynamicBlocks rebuild it from what they expose, the
// chunk index and the block index (with Worker 0), and ForallSpan's
// granules are checked against scheduleCtx's block boundaries.
type frontEnd struct {
	name string
	run  func(p Policy, r Range, visit Body) bool
}

var frontEnds = []frontEnd{
	{"Forall", func(p Policy, r Range, visit Body) bool {
		ForallRange(p, r, visit)
		return true
	}},
	{"ForallSpan", func(p Policy, r Range, visit Body) bool {
		// Each granule must be one whole chunk or block: it takes the Ctx
		// scheduleCtx gives its first index, and Block -1 if that index
		// does not start a block, so a granule that splits or straddles
		// one reports a Ctx checkCoverage rejects.
		want := scheduleCtx(p, r)
		ForallSpan(p, r.Len(), func(lo, hi int) {
			c := Ctx{Worker: max(want[lo].Worker, 0), Block: want[lo].Block}
			if lo > 0 && want[lo-1].Block == c.Block {
				c.Block = -1
			}
			for i := lo; i < hi; i++ {
				visit(c, r.Begin+i)
			}
		})
		return true
	}},
	{"StaticChunks", func(p Policy, r Range, visit Body) bool {
		if p.schedule() != ScheduleStatic {
			return false
		}
		p.pool().StaticChunks(p.Workers, r.Len(), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				visit(Ctx{Worker: w, Block: w}, r.Begin+i)
			}
		})
		return true
	}},
	{"DynamicBlocks", func(p Policy, r Range, visit Body) bool {
		if p.schedule() != ScheduleDynamic {
			return false
		}
		p.pool().DynamicBlocks(p.Workers, p.Block, r.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				visit(Ctx{Block: lo / p.block()}, r.Begin+i)
			}
		})
		return true
	}},
}

// checkCoverage runs fe over r under p and checks that every index runs
// exactly once, on a Worker below MaxWorkers, with the Ctx fields
// scheduleCtx fixes.
func checkCoverage(t *testing.T, name string, fe frontEnd, p Policy, r Range) {
	t.Helper()
	n := r.Len()
	hits := make([]int32, n)
	ctxs := make([]Ctx, n)
	ran := fe.run(p, r, func(c Ctx, i int) {
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
		if (want.Worker >= 0 && c.Worker != want.Worker) || (want.Block >= 0 && c.Block != want.Block) {
			t.Fatalf("%s: index %d ran with %+v, want %+v", name, r.Begin+k, c, want)
		}
	}
}

// scheduleCtx is the schedules' definition of the Ctx of each index of r
// under parallel policy p: the chunk index as Worker and Block under
// static, the block index under dynamic, and Worker 0 with the replayed
// granule sequence whenever a single lane takes part. -1 marks a field
// the race between lanes decides: the lane of a dynamic block, and the
// lane and grab ordinal of a multi-lane guided grab.
func scheduleCtx(p Policy, r Range) []Ctx {
	n := r.Len()
	want := make([]Ctx, n)
	if n == 0 {
		return want
	}
	workers := min(p.workers(), n)
	switch p.schedule() {
	case ScheduleStatic:
		chunk := (n + workers - 1) / workers
		for k := range want {
			want[k] = Ctx{Worker: k / chunk, Block: k / chunk}
		}
	case ScheduleDynamic:
		block := p.block()
		worker := -1
		if min(workers, (n+block-1)/block) <= 1 {
			worker = 0
		}
		for k := range want {
			want[k] = Ctx{Worker: worker, Block: k / block}
		}
	default:
		if workers > 1 {
			for k := range want {
				want[k] = Ctx{Worker: -1, Block: -1}
			}
			break
		}
		for cur, g := 0, 0; cur < n; g++ {
			take := min(max((n-cur)/2, p.guidedMin()), n-cur)
			for k := cur; k < cur+take; k++ {
				want[k] = Ctx{Block: g}
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
				if got := m.Get(0); got != want {
					t.Errorf("%v/%v/w%d: MultiReduceSum sum = %d, want %d", kind, sched, workers, got, want)
				}
			}
		}
	}
}
