package basic

import (
	"sync"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// multiReduceBins is the default bin count, as in the suite.
const multiReduceBins = 10

// MultiReduce implements Basic_MULTI_REDUCE: data-dependent accumulation
// into a small set of bins (RAJA::MultiReduceSum).
type MultiReduce struct {
	kernels.KernelBase
	data []float64
	bins []int64
	n    int
}

func init() { kernels.Register(NewMultiReduce) }

// NewMultiReduce constructs the MULTI_REDUCE kernel.
func NewMultiReduce() kernels.Kernel {
	return &MultiReduce{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "MULTI_REDUCE",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatReduction, kernels.FeatAtomic},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *MultiReduce) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.data = rp.Alloc(k.n)
	k.bins = rp.AllocI64(k.n)
	kernels.InitData(k.data, 1.0)
	kernels.InitIntsRand(k.bins, 99, multiReduceBins)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    16 * n,
		BytesWritten: 8 * float64(multiReduceBins),
		Flops:        1 * n,
	})
	mix := unitMix(1, 2, 0, 3, 2, k.n)
	mix.IntOps = 2
	mix.Pattern = kernels.AccessUnit
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *MultiReduce) Run(v kernels.VariantID, rp kernels.RunParams) error {
	data, bins, n := k.data, k.bins, k.n
	reps := rp.EffectiveReps(k.Info())
	vals := make([]float64, multiReduceBins)
	switch v {
	case kernels.BaseSeq, kernels.LambdaSeq:
		for r := 0; r < reps; r++ {
			for b := range vals {
				vals[b] = 0
			}
			if v == kernels.LambdaSeq {
				body := func(i int) { vals[bins[i]] += data[i] }
				for i := 0; i < n; i++ {
					body(i)
				}
			} else {
				for i := 0; i < n; i++ {
					vals[bins[i]] += data[i]
				}
			}
		}
	case kernels.BaseOpenMP, kernels.LambdaOpenMP, kernels.BaseGPU:
		for r := 0; r < reps; r++ {
			for b := range vals {
				vals[b] = 0
			}
			var mu sync.Mutex
			run := func(lo, hi int) {
				local := make([]float64, multiReduceBins)
				for i := lo; i < hi; i++ {
					local[bins[i]] += data[i]
				}
				mu.Lock()
				for b := range vals {
					vals[b] += local[b]
				}
				mu.Unlock()
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
			red := raja.NewMultiReduceSum[float64](pol, multiReduceBins)
			raja.Forall(pol, n, func(c raja.Ctx, i int) {
				red.Add(c, int(bins[i]), data[i])
			})
			red.GetAll(vals)
		}
	default:
		return k.Unsupported(v)
	}
	k.SetChecksum(kernels.ChecksumSlice(vals))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *MultiReduce) TearDown() { k.data, k.bins = nil, nil }
