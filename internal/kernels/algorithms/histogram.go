package algorithms

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// histogramBins is the default bucket count, as in the suite.
const histogramBins = 100

// Histogram implements Algorithm_HISTOGRAM: count occurrences of each bin
// value in a data stream — data-dependent atomics or multi-reduction.
type Histogram struct {
	kernels.KernelBase
	bins   []int64
	counts []int64
	n      int
}

func init() { kernels.Register(NewHistogram) }

// NewHistogram constructs the HISTOGRAM kernel.
func NewHistogram() kernels.Kernel {
	return &Histogram{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "HISTOGRAM",
		Group:       kernels.Algorithms,
		Features:    []kernels.Feature{kernels.FeatAtomic, kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.NoLambdaVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Histogram) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.bins = rp.AllocI64(k.n)
	k.counts = rp.AllocI64(histogramBins)
	kernels.InitIntsRand(k.bins, 7, histogramBins)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 8 * histogramBins,
		Flops:        0,
	})
	k.SetMix(kernels.Mix{
		IntOps: 2, Loads: 1, Atomics: 1,
		Pattern: kernels.AccessUnit, ILP: 2,
		WorkingSetBytes: 8 * float64(k.n),
		FootprintKB:     0.3,
	})
}

// Run implements kernels.Kernel.
func (k *Histogram) Run(v kernels.VariantID, rp kernels.RunParams) error {
	bins, counts, n := k.bins, k.counts, k.n
	reps := rp.EffectiveReps(k.Info())
	reset := func() {
		for b := range counts {
			counts[b] = 0
		}
	}
	switch v {
	case kernels.BaseSeq:
		for r := 0; r < reps; r++ {
			reset()
			for i := 0; i < n; i++ {
				counts[bins[i]]++
			}
		}
	case kernels.BaseOpenMP, kernels.BaseGPU:
		// Hand-written variants use atomic increments, the GPU-native
		// formulation.
		for r := 0; r < reps; r++ {
			reset()
			run := func(lo, hi int) {
				for i := lo; i < hi; i++ {
					raja.AtomicAddInt64(&counts[bins[i]], 1)
				}
			}
			if v == kernels.BaseGPU {
				rp.ExecPool().DynamicBlocks(rp.Workers, rp.GPUBlock, n, run)
			} else {
				rp.ExecPool().StaticChunks(rp.Workers, n, func(_, lo, hi int) { run(lo, hi) })
			}
		}
	case kernels.RAJASeq, kernels.RAJAOpenMP, kernels.RAJAGPU:
		pol := rp.Policy(v)
		for r := 0; r < reps; r++ {
			red := raja.NewMultiReduceSum[int64](pol, histogramBins)
			raja.Forall(pol, n, func(c raja.Ctx, i int) {
				red.Add(c, int(bins[i]), 1)
			})
			red.GetAll(counts)
		}
	default:
		return k.Unsupported(v)
	}
	k.SetChecksum(kernels.ChecksumInts(counts))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Histogram) TearDown() { k.bins, k.counts = nil, nil }
