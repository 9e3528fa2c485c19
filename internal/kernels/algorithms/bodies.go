package algorithms

import "rajaperf/internal/raja"

// sumReduce is REDUCE_SUM's fused reduction body.
type sumReduce struct {
	x []float64
}

func (r sumReduce) Init() float64                { return 0 }
func (r sumReduce) Partial(lo, hi int) float64   { return raja.SumSpan(r.x, lo, hi) }
func (r sumReduce) Combine(a, b float64) float64 { return a + b }

// scanStore is SCAN's fused exclusive-scan body over x into y.
type scanStore struct {
	x, y []float64
}

func (s scanStore) ScanElem(i int) float64     { return s.x[i] }
func (s scanStore) ScanStore(i int, v float64) { s.y[i] = v }
