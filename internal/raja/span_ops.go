package raja

// Stride-aware unit-stride span kernels for the Stream/Lcals-shaped loop
// bodies. Each helper processes the half-open span [lo, hi) of its
// slices with the bounds checks hoisted: reslicing every operand to the
// span and pinning the side operands to len of the destination lets the
// compiler prove every index in range, so the loop compiles to
// straight-line code. The Stream, DAXPY and memory kernels use them as
// the one loop body their Base and RAJA variants share, and the fused
// reductions as their partials.

// TriadSpan computes a[i] = b[i] + alpha*c[i] for i in [lo, hi).
func TriadSpan(a, b, c []float64, alpha float64, lo, hi int) {
	if lo >= hi {
		return
	}
	a2 := a[lo:hi]
	b2 := b[lo:hi][:len(a2)]
	c2 := c[lo:hi][:len(a2)]
	for i := range a2 {
		a2[i] = b2[i] + alpha*c2[i]
	}
}

// AddSpan computes dst[i] = a[i] + b[i] for i in [lo, hi).
func AddSpan(dst, a, b []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	d2 := dst[lo:hi]
	a2 := a[lo:hi][:len(d2)]
	b2 := b[lo:hi][:len(d2)]
	for i := range d2 {
		d2[i] = a2[i] + b2[i]
	}
}

// CopySpan computes dst[i] = src[i] for i in [lo, hi).
func CopySpan(dst, src []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	copy(dst[lo:hi], src[lo:hi])
}

// ScaleSpan computes dst[i] = alpha * src[i] for i in [lo, hi).
func ScaleSpan(dst, src []float64, alpha float64, lo, hi int) {
	if lo >= hi {
		return
	}
	d2 := dst[lo:hi]
	s2 := src[lo:hi][:len(d2)]
	for i := range d2 {
		d2[i] = alpha * s2[i]
	}
}

// AxpySpan computes y[i] += alpha * x[i] for i in [lo, hi).
func AxpySpan(y, x []float64, alpha float64, lo, hi int) {
	if lo >= hi {
		return
	}
	y2 := y[lo:hi]
	x2 := x[lo:hi][:len(y2)]
	for i := range y2 {
		y2[i] += alpha * x2[i]
	}
}

// FillSpan sets dst[i] = v for i in [lo, hi).
func FillSpan(dst []float64, v float64, lo, hi int) {
	if lo >= hi {
		return
	}
	d2 := dst[lo:hi]
	for i := range d2 {
		d2[i] = v
	}
}

// DotSpan returns the ascending-order sum of a[i]*b[i] over [lo, hi) —
// the same association a per-index fold accumulates over the span.
func DotSpan(a, b []float64, lo, hi int) float64 {
	if lo >= hi {
		return 0
	}
	a2 := a[lo:hi]
	b2 := b[lo:hi][:len(a2)]
	var s float64
	for i := range a2 {
		s += a2[i] * b2[i]
	}
	return s
}

// SumSpan returns the ascending-order sum of x[i] over [lo, hi).
func SumSpan(x []float64, lo, hi int) float64 {
	if lo >= hi {
		return 0
	}
	x2 := x[lo:hi]
	var s float64
	for i := range x2 {
		s += x2[i]
	}
	return s
}
