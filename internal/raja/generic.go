package raja

// Monomorphized dispatch: generic Forall entry points whose loop body is a
// type parameter instead of a closure.
//
// The classic Body path calls an interface-shaped func value once per
// index; Go cannot inline that call across packages, so every iteration
// pays a call, an argument spill, and a lost vectorization opportunity —
// the 2-4x RAJA-vs-Base gap the portability study measured. C++ RAJA does
// not pay it because templates monomorphize the lambda per policy.
//
// Go generics recover the same effect for struct bodies: when B is a
// concrete struct type, ForallRangeG's loop `body.Do(c, i)` compiles to a
// direct, inlinable call in a per-shape instantiation — the loop
// specializes per (policy, schedule, body) combination exactly like a
// template expansion. Pointer-typed bodies share one gcshape dictionary
// and keep an indirect call; pass bodies by value (methods on the struct,
// fields holding the slices) to get the monomorphized loop.
//
// SpanBody goes one step further: the body owns the per-granule loop
// itself, so its code quality no longer depends on the inliner at all —
// the loop inside Span is ordinary straight-line slice code the compiler
// bounds-check-eliminates and vectorizes like a hand-written Base kernel.
// Parallel schedules call Span once per scheduling granule (static chunk,
// dynamic block, guided grab), where the dispatch cost amortizes to
// nothing.

// IndexBody is a loop body invoked once per index, the generic analog of
// Body. Implement it on a struct holding the kernel's slices and scalars
// and pass the struct by value.
type IndexBody interface {
	Do(c Ctx, i int)
}

// SpanBody is a loop body invoked once per scheduling granule with the
// half-open span [lo, hi) to process. The body runs its own inner loop,
// which makes its performance independent of cross-package inlining.
type SpanBody interface {
	Span(c Ctx, lo, hi int)
}

// ForallG executes body.Do for every index in [0, n) under policy p.
// It is the monomorphized counterpart of Forall: identical scheduling,
// Ctx semantics, instrumentation, and fallback behavior.
func ForallG[B IndexBody](p Policy, n int, body B) {
	ForallRangeG(p, RangeN(n), body)
}

// ForallRangeG executes body.Do for every index in r under policy p.
func ForallRangeG[B IndexBody](p Policy, r Range, body B) {
	if r.Len() == 0 {
		return
	}
	if p.Kind == Seq {
		c := Ctx{}
		for i := r.Begin; i < r.End; i++ {
			body.Do(c, i)
		}
		return
	}
	forall(p, r, spanFunc(func(c Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			body.Do(c, i)
		}
	}))
}

// ForallSpanG executes body.Span over the scheduling granules of [0, n)
// under policy p. One Span call per granule; the body loops itself.
func ForallSpanG[B SpanBody](p Policy, n int, body B) {
	ForallSpanRangeG(p, RangeN(n), body)
}

// ForallSpanRangeG executes body.Span over the scheduling granules of r
// under policy p.
func ForallSpanRangeG[B SpanBody](p Policy, r Range, body B) {
	if r.Len() == 0 {
		return
	}
	if p.Kind == Seq {
		body.Span(Ctx{}, r.Begin, r.End)
		return
	}
	forall(p, r, spanFunc(body.Span))
}
