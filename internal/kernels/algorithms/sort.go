package algorithms

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Sort implements Algorithm_SORT: sort a vector of doubles
// (RAJA::sort). Table I gives sorts only Base_Seq plus RAJA variants.
type Sort struct {
	kernels.KernelBase
	x    []float64
	work []float64
	n    int
}

func init() { kernels.Register(NewSort) }

// NewSort constructs the SORT kernel.
func NewSort() kernels.Kernel {
	return &Sort{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "SORT",
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
func (k *Sort) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	k.work = rp.Alloc(k.n)
	kernels.InitDataRand(k.x, 20240601)
	n := float64(k.n)
	lg := 1.0
	for m := k.n; m > 1; m >>= 1 {
		lg++
	}
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n * lg,
		BytesWritten: 8 * n * lg,
		Flops:        0,
	})
	k.SetMix(kernels.Mix{
		Loads: 2, Stores: 1, IntOps: 3, Branches: 1, BrMissRate: 0.4,
		Pattern: kernels.AccessStrided, ILP: 2,
		WorkingSetBytes: 16 * float64(k.n),
		FootprintKB:     2.0,
	})
}

// Run implements kernels.Kernel. Each rep re-sorts a fresh copy of the
// unsorted input.
func (k *Sort) Run(v kernels.VariantID, rp kernels.RunParams) error {
	if !k.Info().HasVariant(v) {
		return k.Unsupported(v)
	}
	pol := rp.Policy(v)
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		copy(k.work, k.x)
		switch v {
		case kernels.BaseSeq:
			// Hand-written heapsort keeps the Base variant free of
			// the portability layer.
			heapSort(k.work)
		default:
			raja.Sort(pol, k.work)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(k.work))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Sort) TearDown() { k.x, k.work = nil, nil }

// heapSort sorts x ascending in place.
func heapSort(x []float64) {
	n := len(x)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(x, i, n)
	}
	for end := n - 1; end > 0; end-- {
		x[0], x[end] = x[end], x[0]
		siftDown(x, 0, end)
	}
}

func siftDown(x []float64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && x[child+1] > x[child] {
			child++
		}
		if x[root] >= x[child] {
			return
		}
		x[root], x[child] = x[child], x[root]
		root = child
	}
}
