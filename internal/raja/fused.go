package raja

// Fused forall+reduce and forall+scan compositions. The classic path
// pairs a Forall dispatch with a separately allocated reducer whose Add
// is a per-index interface call; the fused path computes whole-granule
// partials inside the (monomorphized) body and combines them once per
// granule, so a reduction costs one dispatch and zero per-index calls.

// Reducer is a fused reduction body. Partial reduces the half-open span
// [lo, hi) starting from the reduction's identity; Combine folds two
// partial results; Init is the initial value folded into the final
// result exactly once (RAJA's reducer initial value).
//
// Determinism contract, mirroring the classic reducers: partials land in
// a private slot per Ctx.Worker and the final fold walks slots in
// ascending order, so under Seq and static schedules — where the
// worker→span mapping is deterministic — the result is bit-identical to
// the classic per-index reducer. Dynamic and guided schedules combine a
// lane's grabs in arrival order, which reassociates floating-point sums
// exactly like the classic path's per-lane accumulation does.
type Reducer[A any] interface {
	Init() A
	Partial(lo, hi int) A
	Combine(a, b A) A
}

// ForallReduce executes body.Partial over the scheduling granules of
// [0, n) under p and returns the combined reduction. One dispatch, no
// per-index calls, no reducer allocation beyond the per-worker slots.
func ForallReduce[A any, B Reducer[A]](p Policy, n int, body B) A {
	if n <= 0 {
		return body.Init()
	}
	if p.Kind == Seq || p.workers() <= 1 {
		// Same association as the classic path's single slot: identity-
		// based ascending partial, folded once with the initial value.
		return body.Combine(body.Init(), body.Partial(0, n))
	}
	w := p.MaxWorkers()
	slots := make([]A, w*lanePad)
	set := make([]bool, w*lanePad)
	forall(p, RangeN(n), spanFunc(func(c Ctx, lo, hi int) {
		part := body.Partial(lo, hi)
		k := c.Worker * lanePad
		if set[k] {
			slots[k] = body.Combine(slots[k], part)
		} else {
			slots[k], set[k] = part, true
		}
	}))
	acc := body.Init()
	for k := 0; k < len(slots); k += lanePad {
		if set[k] {
			acc = body.Combine(acc, slots[k])
		}
	}
	return acc
}

// ScanBody is a fused scan body: ScanElem produces the i-th value to
// prefix-sum and ScanStore receives the i-th prefix. The body never sees
// partial values — each index is stored exactly once, with its final
// prefix — so sources and destinations may alias arbitrarily as long as
// ScanElem(i) is not affected by ScanStore(j) for j < i in the same
// chunk (the in-place dst==src scan satisfies this for exclusive scans
// reading ahead of writes; use distinct slices otherwise).
type ScanBody[T Number] interface {
	ScanElem(i int) T
	ScanStore(i int, v T)
}

// ForallInclusiveScan writes the inclusive prefix sum of body.ScanElem
// into body.ScanStore. Bit-identical to InclusiveScanSum over the same
// policy: same sequential cutoff, chunking, and per-chunk association.
func ForallInclusiveScan[T Number, B ScanBody[T]](p Policy, n int, body B) {
	forallScanSum(p, n, body, false)
}

// ForallExclusiveScan writes the exclusive prefix sum of body.ScanElem
// into body.ScanStore; index 0 receives zero.
func ForallExclusiveScan[T Number, B ScanBody[T]](p Policy, n int, body B) {
	forallScanSum(p, n, body, true)
}

// forallScanSum is the fused analog of scanSum. It uses the scan-reduce
// formulation: phase 1 reduces each chunk's total (no stores), phase 2
// exclusive-scans the totals in place, phase 3 rescans each chunk and
// stores localPrefix+offset in one pass — one store per element instead
// of scanSum's store-then-fixup read-modify-write, and one scratch
// allocation instead of two. The per-chunk local prefix recomputed in
// phase 3 is the same ascending association phase 1 summed, and chunk 0
// skips the +offset add, so results are bit-identical to scanSum.
func forallScanSum[T Number, B ScanBody[T]](p Policy, n int, body B, exclusive bool) {
	if n <= 0 {
		return
	}
	workers := p.workers()
	if p.Kind == Seq || workers <= 1 || n < 4*workers {
		var acc T
		if exclusive {
			for i := 0; i < n; i++ {
				body.ScanStore(i, acc)
				acc += body.ScanElem(i)
			}
		} else {
			for i := 0; i < n; i++ {
				acc += body.ScanElem(i)
				body.ScanStore(i, acc)
			}
		}
		return
	}

	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	offsets := make([]T, chunks)
	pp := chunkLoopPolicy(p)

	// Phase 1: per-chunk totals.
	forall(pp, RangeN(chunks), spanFunc(func(_ Ctx, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			lo, hi := bounds(w, chunk, n)
			var acc T
			for i := lo; i < hi; i++ {
				acc += body.ScanElem(i)
			}
			offsets[w] = acc
		}
	}))

	// Phase 2: exclusive-scan the totals sequentially, in place.
	var run T
	for w := 0; w < chunks; w++ {
		t := offsets[w]
		offsets[w] = run
		run += t
	}

	// Phase 3: rescan each chunk, storing final prefixes.
	forall(pp, RangeN(chunks), spanFunc(func(_ Ctx, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			lo, hi := bounds(w, chunk, n)
			var acc T
			off := offsets[w]
			switch {
			case w == 0 && exclusive:
				for i := lo; i < hi; i++ {
					body.ScanStore(i, acc)
					acc += body.ScanElem(i)
				}
			case w == 0:
				for i := lo; i < hi; i++ {
					acc += body.ScanElem(i)
					body.ScanStore(i, acc)
				}
			case exclusive:
				for i := lo; i < hi; i++ {
					body.ScanStore(i, acc+off)
					acc += body.ScanElem(i)
				}
			default:
				for i := lo; i < hi; i++ {
					acc += body.ScanElem(i)
					body.ScanStore(i, acc+off)
				}
			}
		}
	}))
}
