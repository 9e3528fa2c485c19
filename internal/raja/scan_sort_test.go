package raja

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestInclusiveScanSum checks that the exclusive scan plus its input is
// the inclusive prefix, the identity the INDEXLIST kernels use for their
// list length (pos[n-1] + flags[n-1]).
func TestInclusiveScanSum(t *testing.T) {
	for _, p := range testPolicies {
		for _, n := range []int{0, 1, 2, 3, 100, 4097} {
			src := make([]int64, n)
			for i := range src {
				src[i] = int64(i%7 - 3)
			}
			dst := make([]int64, n)
			ExclusiveScanSum(p, dst, src)
			var acc int64
			for i := range src {
				acc += src[i]
				if dst[i]+src[i] != acc {
					t.Fatalf("policy %v n=%d: dst[%d]+src[%d]=%d, want %d", p, n, i, i, dst[i]+src[i], acc)
				}
			}
		}
	}
}

func TestExclusiveScanSum(t *testing.T) {
	for _, p := range testPolicies {
		for _, n := range []int{0, 1, 5, 1000} {
			src := make([]float64, n)
			for i := range src {
				src[i] = float64(i) * 0.25
			}
			dst := make([]float64, n)
			ExclusiveScanSum(p, dst, src)
			var acc float64
			for i := range src {
				if dst[i] != acc {
					t.Fatalf("policy %v n=%d: dst[%d]=%v, want %v", p, n, i, dst[i], acc)
				}
				acc += src[i]
			}
		}
	}
}

func TestScanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	ExclusiveScanSum(SeqPolicy(), make([]int, 3), make([]int, 4))
}

// Property: parallel exclusive scan of integers equals the sequential scan.
func TestQuickScanEquivalence(t *testing.T) {
	f := func(xs []int32) bool {
		src := make([]int64, len(xs))
		for i, v := range xs {
			src[i] = int64(v)
		}
		par := make([]int64, len(src))
		ExclusiveScanSum(ParPolicy(6), par, src)
		var acc int64
		for i := range src {
			if par[i] != acc {
				return false
			}
			acc += src[i]
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortProducesSortedPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range testPolicies {
		for _, n := range []int{0, 1, 2, 17, 1000, 8191} {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64()*100 - 50
			}
			orig := append([]float64(nil), x...)
			Sort(p, x)
			if !sort.Float64sAreSorted(x) {
				t.Fatalf("policy %v n=%d: output not sorted", p, n)
			}
			sort.Float64s(orig)
			for i := range x {
				if x[i] != orig[i] {
					t.Fatalf("policy %v n=%d: output is not a permutation of input", p, n)
				}
			}
		}
	}
}

func TestSortPairsKeepsPairsTogether(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range testPolicies {
		const n = 2000
		keys := make([]int64, n)
		vals := make([]float64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(200)) // duplicates on purpose
			vals[i] = float64(keys[i]) * 2.5
		}
		SortPairs(p, keys, vals)
		for i := 0; i < n; i++ {
			if i > 0 && keys[i-1] > keys[i] {
				t.Fatalf("policy %v: keys not sorted at %d", p, i)
			}
			if vals[i] != float64(keys[i])*2.5 {
				t.Fatalf("policy %v: pair broken at %d: key=%d val=%v", p, i, keys[i], vals[i])
			}
		}
	}
}

// Property: Sort under the GPU policy sorts any integer input.
func TestQuickSort(t *testing.T) {
	f := func(xs []int32) bool {
		x := make([]int64, len(xs))
		for i, v := range xs {
			x[i] = int64(v)
		}
		Sort(GPUPolicy(32), x)
		for i := 1; i < len(x); i++ {
			if x[i-1] > x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkGroupRunsAllItems(t *testing.T) {
	for _, p := range testPolicies {
		var g WorkGroup
		sums := make([]int64, 10)
		for k := 0; k < 10; k++ {
			k := k
			g.Enqueue(100+k, func(c Ctx, i int) {
				AtomicAddInt64(&sums[k], int64(i))
			})
		}
		if len(g.items) != 10 {
			t.Fatalf("enqueued %d items, want 10", len(g.items))
		}
		g.Run(p)
		if len(g.items) != 0 {
			t.Fatalf("policy %v: group not cleared after Run", p)
		}
		for k := range sums {
			n := int64(100 + k)
			want := n * (n - 1) / 2
			if sums[k] != want {
				t.Fatalf("policy %v: item %d sum = %d, want %d", p, k, sums[k], want)
			}
		}
	}
}

func TestAtomicPrimitives(t *testing.T) {
	var f float64
	var n int64
	p := ParPolicy(8)
	Forall(p, 10000, func(c Ctx, i int) {
		AtomicAddFloat64(&f, 0.5)
		AtomicAddInt64(&n, 2)
	})
	if f != 5000 {
		t.Errorf("atomic float sum = %v, want 5000", f)
	}
	if n != 20000 {
		t.Errorf("atomic int sum = %d, want 20000", n)
	}
}

func TestViews(t *testing.T) {
	d := make([]float64, 24)
	v3 := NewView3(d, 3, 4) // 2 x 3 x 4
	v3.Set(1, 2, 3, 42)
	if v3.At(1, 2, 3) != 42 || d[23] != 42 {
		t.Error("View3 indexing wrong")
	}
	v2 := NewView2(d, 12)
	if v2.At(1, 11) != 42 {
		t.Error("View2 indexing disagrees with View3")
	}
	ov := NewView1Offset(d, -10)
	ov.Set(-10, 7)
	if d[0] != 7 {
		t.Error("offset view indexing wrong")
	}
	v1 := NewView1(d)
	v1.Set(2, 3.5)
	if d[2] != 3.5 {
		t.Error("View1 Set wrong")
	}
}

// Property: View3 linear indexing is a bijection onto [0, n0*n1*n2):
// Set stores each (i, j, k) in its own element and At reads it back.
func TestQuickView3Bijection(t *testing.T) {
	f := func(a, b, c uint8) bool {
		n0, n1, n2 := int(a%5)+1, int(b%5)+1, int(c%5)+1
		v := NewView3(make([]float64, n0*n1*n2), n1, n2)
		n := 0
		for i := 0; i < n0; i++ {
			for j := 0; j < n1; j++ {
				for k := 0; k < n2; k++ {
					n++
					v.Set(i, j, k, float64(n))
				}
			}
		}
		seen := make(map[float64]bool)
		for _, x := range v.Data {
			if x == 0 || seen[x] {
				return false
			}
			seen[x] = true
		}
		return v.At(n0-1, n1-1, n2-1) == float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
