package raja

// Ctx carries per-iteration execution context to kernel bodies. Worker is
// a dense index in [0, Policy.MaxWorkers()) identifying the executing
// lane; reductions use it to select a private accumulation slot. Block is
// the ordinal of the scheduling granule the iteration belongs to — the
// chunk index under static scheduling (equal to Worker), the block index
// under dynamic scheduling (the blockIdx analog), and the grab ordinal
// under guided scheduling; it is 0 under Seq. Every schedule reports
// Block identically whether the range runs on one lane or many.
type Ctx struct {
	Worker int
	Block  int
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
// [lo, hi). The fused reductions and scans and the collapsed multi-dim
// loops run their per-index inner loop inside it, so the indirect call
// the closure Body pays per index is paid once per granule here, where it
// amortizes to nothing.
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
// Worker/Block values whatever the shape of the work, so reductions and
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

// Forall2D executes body over the collapsed iteration space
// [0,ni) x [0,nj), distributed according to p (OpenMP collapse(2)).
// Bodies observe j varying fastest, matching the suite's nested-loop
// kernels. Collapsing schedules ni*nj indices instead of ni outer rows,
// so short outer dimensions still balance across every lane, and the
// span-granular dispatch walks (i, j) incrementally — one div/mod per
// scheduling granule rather than one closure call per outer index.
func Forall2D(p Policy, ni, nj int, body func(c Ctx, i, j int)) {
	if ni <= 0 || nj <= 0 {
		return
	}
	forall(p, RangeN(ni*nj), spanFunc(func(c Ctx, lo, hi int) {
		i, j := lo/nj, lo%nj
		for f := lo; f < hi; f++ {
			body(c, i, j)
			j++
			if j == nj {
				j, i = 0, i+1
			}
		}
	}))
}

// Forall3D executes body over the collapsed space [0,ni) x [0,nj) x
// [0,nk), distributed according to p with k varying fastest (OpenMP
// collapse(3)).
func Forall3D(p Policy, ni, nj, nk int, body func(c Ctx, i, j, k int)) {
	if ni <= 0 || nj <= 0 || nk <= 0 {
		return
	}
	forall(p, RangeN(ni*nj*nk), spanFunc(func(c Ctx, lo, hi int) {
		i := lo / (nj * nk)
		rem := lo - i*nj*nk
		j, k := rem/nk, rem%nk
		for f := lo; f < hi; f++ {
			body(c, i, j, k)
			k++
			if k == nk {
				k, j = 0, j+1
				if j == nj {
					j, i = 0, i+1
				}
			}
		}
	}))
}

// ForallSegments executes body over each index of each segment, mirroring
// RAJA's TypedIndexSet dispatch over a list of ranges. All segments fuse
// into a single pool dispatch over the concatenated index space — the
// schedule balances the total work, not each segment separately, and a
// list of short segments costs one dispatch instead of one per segment.
// Indices within one segment still execute in ascending order on the
// lane that owns them, but segments are not barriers: iterations of
// different segments may run concurrently.
func ForallSegments(p Policy, segs []Range, body Body) {
	total := 0
	for _, s := range segs {
		total += s.Len()
	}
	if total == 0 {
		return
	}
	// ends[k] is the flat offset one past segment k; a granule binary-
	// searches its starting segment once, then walks linearly.
	ends := make([]int, len(segs))
	off := 0
	for k, s := range segs {
		off += s.Len()
		ends[k] = off
	}
	forall(p, RangeN(total), spanFunc(func(c Ctx, lo, hi int) {
		k := 0
		if lo > 0 {
			a, b := 0, len(ends)
			for a < b {
				m := (a + b) / 2
				if ends[m] <= lo {
					a = m + 1
				} else {
					b = m
				}
			}
			k = a
		}
		for f := lo; f < hi; k++ {
			segEnd := ends[k]
			start := segEnd - segs[k].Len()
			stop := hi
			if segEnd < stop {
				stop = segEnd
			}
			base := segs[k].Begin - start
			for ; f < stop; f++ {
				body(c, base+f)
			}
		}
	}))
}
