package raja

import (
	"math"
	"testing"
	"testing/quick"
)

// foldBody is a test-local ForallReduce body: Partial folds elem(i) over
// [lo, hi) with op from id, Combine is op, and Init is init.
type foldBody[T any] struct {
	elem     func(i int) T
	op       func(a, b T) T
	id, init T
}

func (b foldBody[T]) Init() T { return b.init }

func (b foldBody[T]) Partial(lo, hi int) T {
	acc := b.id
	for i := lo; i < hi; i++ {
		acc = b.op(acc, b.elem(i))
	}
	return acc
}

func (b foldBody[T]) Combine(x, y T) T { return b.op(x, y) }

// at returns the element function of x.
func at[T any](x []T) func(int) T { return func(i int) T { return x[i] } }

func sumOf[T Number](elem func(int) T, init T) foldBody[T] {
	return foldBody[T]{elem: elem, op: func(a, b T) T { return a + b }, init: init}
}

// bestOf reduces to the element that beats all others under better,
// from the identity id: a min or max reduction, or a min-loc or max-loc
// one over (value, index) pairs.
func bestOf[T any](elem func(int) T, better func(a, b T) bool, id, init T) foldBody[T] {
	return foldBody[T]{elem: elem, op: func(a, b T) T {
		if better(b, a) {
			return b
		}
		return a
	}, id: id, init: init}
}

func less[T Number](a, b T) bool    { return a < b }
func greater[T Number](a, b T) bool { return a > b }

// valLoc pairs a value with the index where it occurred.
type valLoc struct {
	Val float64
	Loc int
}

func locs(x []float64) func(int) valLoc { return func(i int) valLoc { return valLoc{x[i], i} } }

// firstLoc orders (value, index) pairs by better on the value, ties to
// the smallest index, so the answer is the same under every policy.
func firstLoc(better func(a, b float64) bool) func(a, b valLoc) bool {
	return func(a, b valLoc) bool { return better(a.Val, b.Val) || (a.Val == b.Val && a.Loc < b.Loc) }
}

// forEachPolicy runs f under every test policy crossed with every test
// schedule.
func forEachPolicy(f func(p Policy)) {
	for _, p := range testPolicies {
		for _, sched := range testSchedules {
			p.Schedule = sched
			f(p)
		}
	}
}

func TestReduceSumMatchesSequential(t *testing.T) {
	const n = 10000
	x := make([]float64, n)
	want := 0.0
	for i := range x {
		x[i] = float64(i%13) * 0.5
		want += x[i]
	}
	forEachPolicy(func(p Policy) {
		if got := ForallReduce[float64](p, n, sumOf(at(x), 1.5)); math.Abs(got-(want+1.5)) > 1e-9*want {
			t.Errorf("policy %v: sum = %v, want %v", p, got, want+1.5)
		}
	})
}

// TestReduceSumReset checks that Init is folded in exactly once per
// ForallReduce call: a second call with a new initial value starts over,
// and an empty range yields the initial value alone.
func TestReduceSumReset(t *testing.T) {
	ones, twos := make([]float64, 100), make([]float64, 10)
	for i := range ones {
		ones[i] = 1
	}
	for i := range twos {
		twos[i] = 2
	}
	forEachPolicy(func(p Policy) {
		if got := ForallReduce[float64](p, len(ones), sumOf(at(ones), 0)); got != 100 {
			t.Errorf("policy %v: first pass sum = %v, want 100", p, got)
		}
		if got := ForallReduce[float64](p, 0, sumOf(at(twos), 5)); got != 5 {
			t.Errorf("policy %v: empty pass sum = %v, want 5", p, got)
		}
		if got := ForallReduce[float64](p, len(twos), sumOf(at(twos), 5)); got != 25 {
			t.Errorf("policy %v: second pass sum = %v, want 25", p, got)
		}
	})
}

func TestReduceMinMax(t *testing.T) {
	const n = 5000
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.7)
	}
	x[1234] = -9.5
	x[4321] = 7.25
	wantMin, wantMax := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		wantMin = math.Min(wantMin, v)
		wantMax = math.Max(wantMax, v)
	}
	forEachPolicy(func(p Policy) {
		if got := ForallReduce[float64](p, n, bestOf(at(x), less, math.Inf(1), math.Inf(1))); got != wantMin {
			t.Errorf("policy %v: min = %v, want %v", p, got, wantMin)
		}
		if got := ForallReduce[float64](p, n, bestOf(at(x), greater, math.Inf(-1), math.Inf(-1))); got != wantMax {
			t.Errorf("policy %v: max = %v, want %v", p, got, wantMax)
		}
	})
}

func TestReduceMinRespectsInit(t *testing.T) {
	elem := func(i int) float64 { return float64(i) }
	forEachPolicy(func(p Policy) {
		if got := ForallReduce[float64](p, 100, bestOf(elem, less, math.Inf(1), -100)); got != -100 {
			t.Errorf("policy %v: min = %v, want init value -100", p, got)
		}
	})
}

func TestReduceMinLocFindsFirstOccurrence(t *testing.T) {
	const n = 4000
	x := make([]float64, n)
	for i := range x {
		x[i] = 10
	}
	x[700] = -3
	x[2900] = -3 // tie: location must resolve to 700
	id := valLoc{math.Inf(1), -1}
	want := id
	for i, v := range x {
		if v < want.Val {
			want = valLoc{v, i}
		}
	}
	forEachPolicy(func(p Policy) {
		if got := ForallReduce[valLoc](p, n, bestOf(locs(x), firstLoc(less), id, id)); got != want {
			t.Errorf("policy %v: minloc = (%v,%d), want (%v,%d)", p, got.Val, got.Loc, want.Val, want.Loc)
		}
	})
}

func TestReduceMaxLocFindsFirstOccurrence(t *testing.T) {
	const n = 4000
	x := make([]float64, n)
	for i := range x {
		x[i] = -10
	}
	x[900] = 42
	x[3100] = 42 // tie: location must resolve to 900
	id, init := valLoc{math.Inf(-1), -1}, valLoc{7.5, 3}
	want := id
	for i, v := range x {
		if v > want.Val {
			want = valLoc{v, i}
		}
	}
	forEachPolicy(func(p Policy) {
		if got := ForallReduce[valLoc](p, n, bestOf(locs(x), firstLoc(greater), id, id)); got != want {
			t.Errorf("policy %v: maxloc = (%v,%d), want (%v,%d)", p, got.Val, got.Loc, want.Val, want.Loc)
		}
		// Empty fold returns the initial pair.
		if got := ForallReduce[valLoc](p, 0, bestOf(locs(x), firstLoc(greater), id, init)); got != init {
			t.Errorf("policy %v: empty maxloc = %+v", p, got)
		}
	})
}

func TestReduceIntTypes(t *testing.T) {
	const n = 1000
	var wantSum int64
	wantMax := math.MinInt
	for i := 0; i < n; i++ {
		wantSum += int64(i)
		wantMax = max(wantMax, i*3)
	}
	forEachPolicy(func(p Policy) {
		if got := ForallReduce[int64](p, n, sumOf(func(i int) int64 { return int64(i) }, 0)); got != wantSum {
			t.Errorf("policy %v: int64 sum = %d, want %d", p, got, wantSum)
		}
		if got := ForallReduce[int](p, n, bestOf(func(i int) int { return i * 3 }, greater, math.MinInt, math.MinInt)); got != wantMax {
			t.Errorf("policy %v: int max = %d, want %d", p, got, wantMax)
		}
	})
}

func TestMultiReduceSum(t *testing.T) {
	const n, bins = 9000, 7
	for _, p := range testPolicies {
		m := NewMultiReduceSum[float64](p, bins)
		Forall(p, n, func(c Ctx, i int) { m.Add(c, i%bins, 1) })
		got := make([]float64, bins)
		m.GetAll(got)
		for b := 0; b < bins; b++ {
			want := float64(n / bins)
			if n%bins > b {
				want++
			}
			if got[b] != want {
				t.Errorf("policy %v: bin %d = %v, want %v", p, b, got[b], want)
			}
		}
	}
}

// Property: for any input vector, the parallel reduction equals the
// sequential reduction exactly when summing integers.
func TestQuickReduceSumIntEquivalence(t *testing.T) {
	f := func(xs []int32) bool {
		var want int64
		for _, v := range xs {
			want += int64(v)
		}
		ok := true
		forEachPolicy(func(p Policy) {
			body := sumOf(func(i int) int64 { return int64(xs[i]) }, 0)
			ok = ok && ForallReduce[int64](p, len(xs), body) == want
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: min/max reductions agree with a sequential fold for any input.
func TestQuickReduceMinMaxEquivalence(t *testing.T) {
	f := func(xs []float32) bool {
		inf, ninf := float32(math.Inf(1)), float32(math.Inf(-1))
		wantMin, wantMax := inf, ninf
		for _, v := range xs {
			if v < wantMin {
				wantMin = v
			}
			if v > wantMax {
				wantMax = v
			}
		}
		ok := true
		forEachPolicy(func(p Policy) {
			ok = ok && ForallReduce[float32](p, len(xs), bestOf(at(xs), less, inf, inf)) == wantMin &&
				ForallReduce[float32](p, len(xs), bestOf(at(xs), greater, ninf, ninf)) == wantMax
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
