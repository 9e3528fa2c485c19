package raja

// Layout2 maps a two-dimensional index space onto linear storage in
// row-major order, mirroring RAJA::Layout<2>.
type Layout2 struct {
	N1 int // extent of the fastest-varying dimension
}

// Layout3 maps a three-dimensional index space onto linear storage.
type Layout3 struct {
	N1, N2 int // extents of the two fastest-varying dimensions
}

// View1 is a one-dimensional typed view over linear storage with an
// optional index offset, mirroring RAJA::View with an OffsetLayout. The
// suite's INIT_VIEW1D kernels exercise exactly this indirection.
type View1[T any] struct {
	Data   []T
	Offset int
}

// NewView1 wraps data in a 1-D view with no offset.
func NewView1[T any](data []T) View1[T] { return View1[T]{Data: data} }

// NewView1Offset wraps data in a 1-D view whose index i maps to
// data[i-offset].
func NewView1Offset[T any](data []T, offset int) View1[T] {
	return View1[T]{Data: data, Offset: offset}
}

// Set stores x at logical index i.
func (v View1[T]) Set(i int, x T) { v.Data[i-v.Offset] = x }

// View2 is a row-major two-dimensional view (RAJA::View<double, Layout<2>>).
type View2[T any] struct {
	Data []T
	L    Layout2
}

// NewView2 wraps data as an n0 x n1 view; data must have n0*n1 elements.
func NewView2[T any](data []T, n1 int) View2[T] {
	return View2[T]{Data: data, L: Layout2{N1: n1}}
}

// At returns the element at (i, j).
func (v View2[T]) At(i, j int) T { return v.Data[i*v.L.N1+j] }

// View3 is a row-major three-dimensional view.
type View3[T any] struct {
	Data []T
	L    Layout3
}

// NewView3 wraps data as an n0 x n1 x n2 view.
func NewView3[T any](data []T, n1, n2 int) View3[T] {
	return View3[T]{Data: data, L: Layout3{N1: n1, N2: n2}}
}

// At returns the element at (i, j, k).
func (v View3[T]) At(i, j, k int) T { return v.Data[(i*v.L.N1+j)*v.L.N2+k] }

// Set stores x at (i, j, k).
func (v View3[T]) Set(i, j, k int, x T) { v.Data[(i*v.L.N1+j)*v.L.N2+k] = x }
