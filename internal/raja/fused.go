package raja

// Fused forall+reduce composition. A reduction body computes
// whole-granule partials and the executor combines them once per granule,
// so a reduction costs one dispatch and zero per-index calls.

// Reducer is a fused reduction body. Partial reduces the half-open span
// [lo, hi) starting from the reduction's identity, so Partial over an
// empty span is the identity; Combine folds two partial results; Init is
// the initial value folded into the final result exactly once (RAJA's
// reducer initial value).
//
// Determinism contract: partials land in a private slot per Ctx.Worker
// and the final fold walks slots in ascending order from Init, so under
// Seq and static schedules — where the worker→span mapping is
// deterministic — the result is bit-identical from run to run, and under
// Seq it equals body.Combine(body.Init(), body.Partial(0, n)). Dynamic
// and guided schedules combine a lane's grabs in arrival order, which
// reassociates floating-point sums.
type Reducer[A any] interface {
	Init() A
	Partial(lo, hi int) A
	Combine(a, b A) A
}

// lanePad separates ForallReduce's per-worker slots to avoid false
// sharing.
const lanePad = 8 // 8 float64 = 64 bytes

// ForallReduce executes body.Partial over the scheduling granules of
// [0, n) under p and returns the combined reduction. One dispatch, no
// per-index calls, no reducer allocation beyond the per-worker slots.
func ForallReduce[A any, B Reducer[A]](p Policy, n int, body B) A {
	if n <= 0 {
		return body.Init()
	}
	if p.Kind == Seq || p.workers() <= 1 {
		// One slot: the identity-based ascending partial, folded once
		// with the initial value.
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
