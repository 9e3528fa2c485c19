package raja

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// valuesFromSeed derives n float64 values that are small integers, so
// their sum is exact in float64 no matter how additions interleave —
// permutation-invariant inputs, as the conformance contract for
// AtomicAddFloat64 requires.
func valuesFromSeed(seed int64, n int) ([]float64, float64) {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	var sum float64
	for i := range vals {
		vals[i] = float64(rng.Intn(1<<20) - 1<<19)
		sum += vals[i]
	}
	return vals, sum
}

// FuzzAtomicAddFloat64 checks the CAS loop loses no update under
// concurrency: goroutines race adds into one accumulator and the total
// must equal the exact sequential sum.
func FuzzAtomicAddFloat64(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(42), uint8(8))
	f.Add(int64(-7), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, workers uint8) {
		g := int(workers%16) + 2
		vals, want := valuesFromSeed(seed, 1024)
		var total float64
		var wg sync.WaitGroup
		chunk := (len(vals) + g - 1) / g
		for w := 0; w < g; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(vals) {
				hi = len(vals)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(part []float64) {
				defer wg.Done()
				for _, v := range part {
					AtomicAddFloat64(&total, v)
				}
			}(vals[lo:hi])
		}
		wg.Wait()
		if total != want {
			t.Fatalf("concurrent atomic sum = %v, want exactly %v (seed %d, %d workers)",
				total, want, seed, g)
		}
	})
}

// fuzzPolicies are the parallel policies the scan/sort oracles run under.
func fuzzPolicies() []Policy {
	return []Policy{
		SeqPolicy(),
		ParPolicy(2),
		ParPolicy(5),
		{Kind: Par, Workers: 4, Schedule: ScheduleDynamic, Block: 3},
		{Kind: Par, Workers: 4, Schedule: ScheduleGuided},
		GPUPolicy(16),
	}
}

// FuzzScanSum checks ExclusiveScanSum against the sequential prefix-sum
// oracle. Integer elements make the comparison
// exact even though the parallel scan reassociates additions.
func FuzzScanSum(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 17, 42, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 250, 128, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := make([]int64, len(data))
		for i, b := range data {
			src[i] = int64(b) - 128
		}
		wantExc := make([]int64, len(src))
		var acc int64
		for i, v := range src {
			wantExc[i] = acc
			acc += v
		}
		for _, p := range fuzzPolicies() {
			got := make([]int64, len(src))
			ExclusiveScanSum(p, got, src)
			for i := range got {
				if got[i] != wantExc[i] {
					t.Fatalf("policy %+v: exclusive scan[%d] = %d, want %d", p, i, got[i], wantExc[i])
				}
			}
		}
	})
}

// FuzzSort checks the parallel merge sort against sort.Float64s.
func FuzzSort(f *testing.F) {
	f.Add([]byte{3, 1, 2})
	f.Add([]byte{})
	f.Add([]byte{9, 9, 9, 8, 200, 1, 255, 0, 0, 0, 5, 4, 3, 2, 1, 77, 66, 55, 44, 33, 22, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Two bytes per element so duplicates and near-duplicates occur.
		n := len(data) / 2
		base := make([]float64, n)
		for i := 0; i < n; i++ {
			base[i] = float64(int(data[2*i])<<8|int(data[2*i+1])) - 32768
		}
		want := append([]float64(nil), base...)
		sort.Float64s(want)
		for _, p := range fuzzPolicies() {
			got := append([]float64(nil), base...)
			Sort(p, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("policy %+v: sorted[%d] = %v, want %v", p, i, got[i], want[i])
				}
			}
		}
	})
}

// FuzzSortPairs checks key ordering and stable value permutation against
// a sequential stable-sort oracle.
func FuzzSortPairs(f *testing.F) {
	f.Add([]byte{2, 1, 2, 1, 0})
	f.Add([]byte{5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([]int64, len(data))
		vals := make([]int, len(data))
		for i, b := range data {
			keys[i] = int64(b % 8) // few distinct keys: exercises stability
			vals[i] = i
		}
		type kv struct {
			k int64
			v int
		}
		oracle := make([]kv, len(data))
		for i := range oracle {
			oracle[i] = kv{keys[i], vals[i]}
		}
		sort.SliceStable(oracle, func(a, b int) bool { return oracle[a].k < oracle[b].k })
		for _, p := range fuzzPolicies() {
			k := append([]int64(nil), keys...)
			v := append([]int(nil), vals...)
			SortPairs(p, k, v)
			for i := range k {
				if k[i] != oracle[i].k || v[i] != oracle[i].v {
					t.Fatalf("policy %+v: pair %d = (%d,%d), want (%d,%d)",
						p, i, k[i], v[i], oracle[i].k, oracle[i].v)
				}
			}
		}
	})
}
