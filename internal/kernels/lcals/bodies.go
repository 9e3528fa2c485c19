package lcals

import "math"

// minLocAcc is FIRST_MIN's accumulator: the running minimum and the
// first index attaining it. Taking the lexicographically smallest
// (Val, Loc) pair is associative and commutative, so the fused result
// is exact under any chunk-combine order.
type minLocAcc struct {
	Val float64
	Loc int
}

// firstMinBody is FIRST_MIN's fused min-loc reduction body.
type firstMinBody struct {
	x []float64
}

func (r firstMinBody) Init() minLocAcc {
	return minLocAcc{Val: math.Inf(1), Loc: -1}
}

func (r firstMinBody) Partial(lo, hi int) minLocAcc {
	acc := minLocAcc{Val: math.Inf(1), Loc: -1}
	x := r.x[lo:hi]
	for i, v := range x {
		if v < acc.Val {
			acc.Val, acc.Loc = v, lo+i
		}
	}
	return acc
}

func (r firstMinBody) Combine(a, b minLocAcc) minLocAcc {
	if b.Val < a.Val || (b.Val == a.Val && b.Loc < a.Loc) {
		return b
	}
	return a
}
