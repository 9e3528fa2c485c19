package raja

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkForallPar compares the persistent-pool executor against its
// spawn fallback — the same lane loops on one fresh goroutine per lane,
// measured on a closed pool — for a daxpy-shaped parallel forall across
// problem sizes. The pool's win is dispatch cost: at small n the
// goroutine-spawn path is dominated by per-call scheduling, exactly the
// per-invocation overhead pSTL-Bench attributes to parallel-STL
// back-ends.
//
// Both paths run with a fixed lane count so the dispatch machinery is
// exercised identically on any host; with default (GOMAXPROCS-sized)
// workers a single-core machine would degenerate both paths to the
// inline sequential loop and measure nothing.
//
//	go test -bench BenchmarkForallPar -benchmem ./internal/raja/
func BenchmarkForallPar(b *testing.B) {
	lanes := 2 * max(2, runtime.GOMAXPROCS(0))
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		body := func(c Ctx, i int) { y[i] += 2.0 * x[i] }

		b.Run(fmt.Sprintf("pool/n=%d", n), func(b *testing.B) {
			pool := NewPool(lanes)
			defer pool.Close()
			p := Policy{Kind: Par, Workers: lanes, Pool: pool}
			Forall(p, n, body) // start the workers outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Forall(p, n, body)
			}
		})

		b.Run(fmt.Sprintf("spawn/n=%d", n), func(b *testing.B) {
			p := Policy{Kind: Par, Workers: lanes, Pool: closedPool(lanes)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Forall(p, n, body)
			}
		})
	}
}

// closedPool returns a closed pool, whose every multi-lane dispatch takes
// the spawn fallback.
func closedPool(lanes int) *Pool {
	pool := NewPool(lanes)
	pool.Close()
	return pool
}

// BenchmarkForallGPU compares pooled and spawn-fallback dynamic
// (block-cursor) dispatch, the GPU back-end shape.
func BenchmarkForallGPU(b *testing.B) {
	lanes := 2 * max(2, runtime.GOMAXPROCS(0))
	for _, n := range []int{10_000, 1_000_000} {
		y := make([]float64, n)
		body := func(c Ctx, i int) { y[i] += 1 }

		b.Run(fmt.Sprintf("pool/n=%d", n), func(b *testing.B) {
			pool := NewPool(lanes)
			defer pool.Close()
			p := Policy{Kind: GPU, Workers: lanes, Pool: pool}
			Forall(p, n, body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Forall(p, n, body)
			}
		})

		b.Run(fmt.Sprintf("spawn/n=%d", n), func(b *testing.B) {
			p := Policy{Kind: GPU, Workers: lanes, Pool: closedPool(lanes)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Forall(p, n, body)
			}
		})
	}
}

// BenchmarkForallSchedules compares the three schedules on uniform work,
// where static should win (no cursor traffic) and guided should beat
// dynamic's per-block CAS.
func BenchmarkForallSchedules(b *testing.B) {
	const n = 100_000
	y := make([]float64, n)
	body := func(c Ctx, i int) { y[i] += 1 }
	lanes := 2 * max(2, runtime.GOMAXPROCS(0))
	for _, sched := range []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
		b.Run(sched.String(), func(b *testing.B) {
			pool := NewPool(lanes)
			defer pool.Close()
			p := Policy{Kind: Par, Workers: lanes, Schedule: sched, Pool: pool}
			Forall(p, n, body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Forall(p, n, body)
			}
		})
	}
}

// BenchmarkPoolDispatch measures raw dispatch latency: an empty-body
// parallel region, pool versus spawn fallback.
func BenchmarkPoolDispatch(b *testing.B) {
	body := func(c Ctx, i int) {}
	lanes := 2 * max(2, runtime.GOMAXPROCS(0))
	n := 64 * lanes
	b.Run("pool", func(b *testing.B) {
		pool := NewPool(lanes)
		defer pool.Close()
		p := Policy{Kind: Par, Workers: lanes, Pool: pool}
		Forall(p, n, body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Forall(p, n, body)
		}
	})
	b.Run("spawn", func(b *testing.B) {
		p := Policy{Kind: Par, Workers: lanes, Pool: closedPool(lanes)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Forall(p, n, body)
		}
	})
}
