package algorithms

import "rajaperf/internal/raja"

// sumReduce is REDUCE_SUM's fused reduction body.
type sumReduce struct {
	x []float64
}

func (r sumReduce) Init() float64                { return 0 }
func (r sumReduce) Partial(lo, hi int) float64   { return raja.SumSpan(r.x, lo, hi) }
func (r sumReduce) Combine(a, b float64) float64 { return a + b }
