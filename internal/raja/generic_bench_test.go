package raja

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkDispatchModes compares the two ways a daxpy-shaped body can
// reach the executor — a per-index closure (Forall) and a span body
// (ForallSpan) — under Seq and pooled Par policies. The span path is how
// every elementwise kernel's RAJA variants run: the inner loop lives in
// the body, so it bounds-check-eliminates no matter what the inliner
// does with the dispatch layer.
//
//	go test -bench BenchmarkDispatchModes -benchmem ./internal/raja/
func BenchmarkDispatchModes(b *testing.B) {
	lanes := 2 * max(2, runtime.GOMAXPROCS(0))
	for _, n := range []int{1_000, 100_000, 1_000_000} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		closure := func(c Ctx, i int) { y[i] += 2.0 * x[i] }
		span := func(lo, hi int) { AxpySpan(y, x, 2.0, lo, hi) }

		pols := []struct {
			name string
			p    Policy
		}{
			{"Seq", Policy{Kind: Seq}},
			{"Par", Policy{Kind: Par, Workers: lanes}},
		}
		for _, pc := range pols {
			p := pc.p
			var pool *Pool
			if p.Kind == Par {
				pool = NewPool(lanes)
				p.Pool = pool
				Forall(p, n, closure) // park the workers outside the timer
			}
			b.Run(fmt.Sprintf("closure/%s/n=%d", pc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Forall(p, n, closure)
				}
			})
			b.Run(fmt.Sprintf("span/%s/n=%d", pc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ForallSpan(p, n, span)
				}
			})
			if pool != nil {
				pool.Close()
			}
		}
	}
}

// BenchmarkForall2DCollapsed measures the collapsed 2-D dispatch against
// the pre-flattening shape (one parallel dispatch per row). Collapsing
// turns ni dispatches into one, so the allocation count per op drops
// from O(ni) to O(1) and small-row iteration spaces stop being
// dominated by dispatch latency.
//
//	go test -bench BenchmarkForall2DCollapsed -benchmem ./internal/raja/
func BenchmarkForall2DCollapsed(b *testing.B) {
	lanes := 2 * max(2, runtime.GOMAXPROCS(0))
	for _, dims := range []struct{ ni, nj int }{{64, 64}, {256, 256}} {
		ni, nj := dims.ni, dims.nj
		grid := make([]float64, ni*nj)
		pool := NewPool(lanes)
		p := Policy{Kind: Par, Workers: lanes, Pool: pool}
		body := func(_ Ctx, i, j int) { grid[i*nj+j] += float64(i - j) }
		Forall2D(p, ni, nj, body) // park the workers outside the timer

		b.Run(fmt.Sprintf("collapsed/%dx%d", ni, nj), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Forall2D(p, ni, nj, body)
			}
		})
		b.Run(fmt.Sprintf("per-row/%dx%d", ni, nj), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for row := 0; row < ni; row++ {
					row := row
					Forall(p, nj, func(c Ctx, j int) { body(c, row, j) })
				}
			}
		})
		pool.Close()
	}
}
