package algorithms

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// SortPairs implements Algorithm_SORTPAIRS: sort keys and carry values
// along (RAJA::sort_pairs).
type SortPairs struct {
	kernels.KernelBase
	keys, vals         []float64
	workKeys, workVals []float64
	n                  int
}

func init() { kernels.Register(NewSortPairs) }

// NewSortPairs constructs the SORTPAIRS kernel.
func NewSortPairs() kernels.Kernel {
	return &SortPairs{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "SORTPAIRS",
		Group:       kernels.Algorithms,
		Features:    []kernels.Feature{kernels.FeatSort},
		Complexity:  kernels.CxNLgN,
		DefaultSize: 50_000,
		DefaultReps: 3,
		Variants: []kernels.VariantID{
			kernels.BaseSeq, kernels.RAJASeq,
			kernels.RAJAOpenMP, kernels.RAJAGPU,
		},
	})}
}

// SetUp implements kernels.Kernel.
func (k *SortPairs) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.keys = rp.Alloc(k.n)
	k.vals = rp.Alloc(k.n)
	k.workKeys = rp.Alloc(k.n)
	k.workVals = rp.Alloc(k.n)
	kernels.InitDataRand(k.keys, 99991)
	for i := range k.vals {
		k.vals[i] = k.keys[i] * 3.5 // value determined by key for checking
	}
	n := float64(k.n)
	lg := 1.0
	for m := k.n; m > 1; m >>= 1 {
		lg++
	}
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    16 * n * lg,
		BytesWritten: 16 * n * lg,
		Flops:        0,
	})
	k.SetMix(kernels.Mix{
		Loads: 4, Stores: 2, IntOps: 4, Branches: 1, BrMissRate: 0.4,
		Pattern: kernels.AccessStrided, ILP: 2,
		WorkingSetBytes: 32 * float64(k.n),
		FootprintKB:     2.5,
	})
}

// Run implements kernels.Kernel.
func (k *SortPairs) Run(v kernels.VariantID, rp kernels.RunParams) error {
	if !k.Info().HasVariant(v) {
		return k.Unsupported(v)
	}
	pol := rp.Policy(v)
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		copy(k.workKeys, k.keys)
		copy(k.workVals, k.vals)
		switch v {
		case kernels.BaseSeq:
			baseSortPairs(k.workKeys, k.workVals)
		default:
			raja.SortPairs(pol, k.workKeys, k.workVals)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(k.workKeys) + kernels.ChecksumSlice(k.workVals))
	return nil
}

// baseSortPairs is a hand-written pair heapsort.
func baseSortPairs(keys, vals []float64) {
	n := len(keys)
	down := func(root, end int) {
		for {
			child := 2*root + 1
			if child >= end {
				return
			}
			if child+1 < end && keys[child+1] > keys[child] {
				child++
			}
			if keys[root] >= keys[child] {
				return
			}
			keys[root], keys[child] = keys[child], keys[root]
			vals[root], vals[child] = vals[child], vals[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		down(i, n)
	}
	for end := n - 1; end > 0; end-- {
		keys[0], keys[end] = keys[end], keys[0]
		vals[0], vals[end] = vals[end], vals[0]
		down(0, end)
	}
}

// TearDown implements kernels.Kernel.
func (k *SortPairs) TearDown() {
	k.keys, k.vals, k.workKeys, k.workVals = nil, nil, nil, nil
}
