package raja

// Ctx carries per-iteration execution context to kernel bodies. Worker is
// a dense index in [0, Policy.MaxWorkers()) identifying the executing
// lane; reductions use it to select a private accumulation slot.
type Ctx struct {
	Worker int
}

// Body is a forall loop body invoked once per index.
type Body func(c Ctx, i int)

// Range is a half-open iteration space [Begin, End).
type Range struct {
	Begin, End int
}

// Len returns the number of iterations in the range.
func (r Range) Len() int {
	if r.End <= r.Begin {
		return 0
	}
	return r.End - r.Begin
}

// RangeN returns the range [0, n).
func RangeN(n int) Range { return Range{0, n} }

// runSpan runs a per-index Body over one granule, which makes Body the
// dispatch core's work for the closure front-ends.
func (b Body) runSpan(c Ctx, lo, hi int) {
	for i := lo; i < hi; i++ {
		b(c, i)
	}
}

// spanFunc is a granule-level loop body: one call per scheduling granule
// (static chunk, dynamic block, guided grab), covering the half-open span
// [lo, hi). The fused reductions and scans run their per-index inner
// loop inside it, so the indirect call the closure Body pays per index is
// paid once per granule here, where it amortizes to nothing.
type spanFunc func(c Ctx, lo, hi int)

func (f spanFunc) runSpan(c Ctx, lo, hi int) { f(c, lo, hi) }

// Forall executes body for every index in [0, n) under policy p.
func Forall(p Policy, n int, body Body) {
	ForallRange(p, RangeN(n), body)
}

// ForallSpan executes body over the scheduling granules of [0, n) under
// policy p: one call per granule with its half-open span [lo, hi), the
// whole range under Seq. The body runs its own inner loop, the same loop
// a kernel's Base variants run, so a RAJA variant pays one indirect call
// per granule and no per-index call at all.
func ForallSpan(p Policy, n int, body func(lo, hi int)) {
	forall(p, RangeN(n), blockFunc(body))
}

// ForallRange executes body for every index in r under policy p.
//
// Under Seq the iterations run in order on the calling goroutine. Par and
// GPU dispatch through the policy's persistent worker pool (Policy.Pool,
// defaulting to the shared Default pool): the caller runs lane 0 while
// the pool's parked workers take the remaining lanes, so a dispatch costs
// two channel operations per helper lane rather than a goroutine spawn
// per chunk. The iteration-to-lane mapping follows Policy.Schedule:
// static contiguous chunks (the Par default), dynamic fixed-size blocks
// (the GPU default, mirroring thread-block scheduling), or guided
// shrinking grabs. If the pool is busy — a concurrent or nested parallel
// region — or closed, the same lane loops run on freshly spawned
// goroutines with identical semantics.
func ForallRange(p Policy, r Range, body Body) {
	forall(p, r, body)
}

// forall lowers a front-end onto the executor: Seq runs the whole range
// as one granule on the caller, Par and GPU go through the dispatch core
// of the policy's pool. The Ctx handed to each granule carries the same
// Worker whatever the shape of the work, so reductions and
// instrumentation observe identical lane semantics on every front-end.
func forall(p Policy, r Range, w spanWork) {
	if r.Len() == 0 {
		return
	}
	if p.Kind == Seq {
		w.runSpan(Ctx{}, r.Begin, r.End)
		return
	}
	sched := p.schedule()
	size := p.block()
	if sched == ScheduleGuided {
		size = p.guidedMin()
	}
	p.pool().dispatch(sched, p.workers(), size, r, w)
}
