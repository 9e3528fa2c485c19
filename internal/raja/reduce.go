package raja

// Number is the constraint satisfied by the value types the suite reduces.
type Number interface {
	~int | ~int32 | ~int64 | ~float32 | ~float64
}

// MultiReduceSum accumulates nbins independent sums, the abstraction behind
// the suite's MULTI_REDUCE and HISTOGRAM kernels (RAJA::MultiReduceSum).
type MultiReduceSum[T Number] struct {
	lanes [][]T
}

// NewMultiReduceSum returns a multi-bin sum reducer.
func NewMultiReduceSum[T Number](p Policy, bins int) *MultiReduceSum[T] {
	m := &MultiReduceSum[T]{lanes: make([][]T, p.MaxWorkers())}
	for i := range m.lanes {
		m.lanes[i] = make([]T, bins)
	}
	return m
}

// Add accumulates v into bin b of the calling worker's lane.
func (m *MultiReduceSum[T]) Add(c Ctx, b int, v T) { m.lanes[c.Worker][b] += v }

// GetAll combines all bins into dst, which must have length bins.
func (m *MultiReduceSum[T]) GetAll(dst []T) {
	for b := range dst {
		dst[b] = 0
	}
	for _, l := range m.lanes {
		for b, v := range l {
			dst[b] += v
		}
	}
}
