package basic

import "math"

// piReduce is PI_REDUCE's fused reduction body: midpoint quadrature of
// 1/(1+x^2). The span index is absolute, so Partial recomputes x from i
// exactly as the Base loop does.
type piReduce struct {
	dx float64
}

func (r piReduce) Init() float64 { return 0 }

func (r piReduce) Partial(lo, hi int) float64 {
	var sum float64
	for i := lo; i < hi; i++ {
		x := (float64(i) + 0.5) * r.dx
		sum += r.dx / (1.0 + x*x)
	}
	return sum
}

func (r piReduce) Combine(a, b float64) float64 { return a + b }

// trapReduce is TRAP_INT's reduction body: the sum of the integrand at
// x0 + i*h. Like piReduce it recomputes x from the absolute index.
type trapReduce struct {
	x0, xp, y, yp, h float64
}

func (r trapReduce) Init() float64 { return 0 }

func (r trapReduce) Partial(lo, hi int) float64 {
	var sum float64
	for i := lo; i < hi; i++ {
		x := r.x0 + float64(i)*r.h
		sum += trapFunc(x, r.y, r.xp, r.yp)
	}
	return sum
}

func (r trapReduce) Combine(a, b float64) float64 { return a + b }

// reduceStructBody is REDUCE_STRUCT's reduction body: Partial folds the
// points (x[i], y[i]) into a fresh accumulator and Combine merges two.
type reduceStructBody struct {
	x, y []float64
}

func (r reduceStructBody) Init() reduceStructAcc { return newReduceStructAcc() }

func (r reduceStructBody) Partial(lo, hi int) reduceStructAcc {
	acc := newReduceStructAcc()
	for i := lo; i < hi; i++ {
		acc.fold(r.x[i], r.y[i])
	}
	return acc
}

func (r reduceStructBody) Combine(a, b reduceStructAcc) reduceStructAcc {
	a.merge(b)
	return a
}

// reduce3Acc carries REDUCE3_INT's three simultaneous reductions through
// one fused dispatch. Integer arithmetic makes the result exact under
// any combine order.
type reduce3Acc struct {
	Sum, Min, Max int64
}

// reduce3Body is REDUCE3_INT's fused reduction body.
type reduce3Body struct {
	vec []int64
}

func (r reduce3Body) Init() reduce3Acc {
	return reduce3Acc{Sum: 0, Min: math.MaxInt64, Max: math.MinInt64}
}

func (r reduce3Body) Partial(lo, hi int) reduce3Acc {
	acc := r.Init()
	v := r.vec[lo:hi]
	for _, x := range v {
		acc.Sum += x
		if x < acc.Min {
			acc.Min = x
		}
		if x > acc.Max {
			acc.Max = x
		}
	}
	return acc
}

func (r reduce3Body) Combine(a, b reduce3Acc) reduce3Acc {
	a.Sum += b.Sum
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	return a
}
