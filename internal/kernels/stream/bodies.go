package stream

import "rajaperf/internal/raja"

// dotReduce is DOT's fused reduction body: sum of a[i]*b[i].
type dotReduce struct {
	a, b []float64
}

func (r dotReduce) Init() float64                { return 0 }
func (r dotReduce) Partial(lo, hi int) float64   { return raja.DotSpan(r.a, r.b, lo, hi) }
func (r dotReduce) Combine(a, b float64) float64 { return a + b }
