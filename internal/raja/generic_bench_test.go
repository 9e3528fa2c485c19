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
