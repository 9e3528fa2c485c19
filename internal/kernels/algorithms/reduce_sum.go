package algorithms

import (
	"sync"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// ReduceSum implements Algorithm_REDUCE_SUM: a plain sum reduction over a
// data array. The paper calls it out as a kernel whose bottleneck is not
// memory bandwidth on either SPR system (Sec III-A).
type ReduceSum struct {
	kernels.KernelBase
	x []float64
	n int
}

func init() { kernels.Register(NewReduceSum) }

// NewReduceSum constructs the REDUCE_SUM kernel.
func NewReduceSum() kernels.Kernel {
	return &ReduceSum{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "REDUCE_SUM",
		Group:       kernels.Algorithms,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
		Mono:        true,
	})}
}

// SetUp implements kernels.Kernel.
func (k *ReduceSum) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	kernels.InitData(k.x, 1.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 0,
		Flops:        1 * n,
	})
	mix := memMix(1, 1, 0, 1, k.n)
	// Strict FP forbids reassociating the accumulator: the add-latency
	// chain serializes the loop, which is why the paper finds this
	// kernel NOT memory bound on either SPR system (Sec III-A).
	mix.Scalar = true
	mix.ILP = 0.3
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *ReduceSum) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, n := k.x, k.n
	reps := rp.EffectiveReps(k.Info())
	var sum float64
	switch v {
	case kernels.BaseSeq, kernels.LambdaSeq:
		for r := 0; r < reps; r++ {
			sum = 0
			if v == kernels.LambdaSeq {
				body := func(i int) { sum += x[i] }
				for i := 0; i < n; i++ {
					body(i)
				}
			} else {
				for i := 0; i < n; i++ {
					sum += x[i]
				}
			}
		}
	case kernels.BaseOpenMP, kernels.LambdaOpenMP, kernels.BaseGPU:
		for r := 0; r < reps; r++ {
			sum = 0
			var mu sync.Mutex
			run := func(lo, hi int) {
				local := 0.0
				for i := lo; i < hi; i++ {
					local += x[i]
				}
				mu.Lock()
				sum += local
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
		if rp.Dispatch == kernels.DispatchClosure {
			for r := 0; r < reps; r++ {
				red := raja.NewReduceSum(pol, 0.0)
				raja.Forall(pol, n, func(c raja.Ctx, i int) {
					red.Add(c, x[i])
				})
				sum = red.Get()
			}
		} else {
			// Fused monomorphized reduction: one dispatch, whole-granule
			// partials, no reducer allocation.
			for r := 0; r < reps; r++ {
				sum = raja.ForallReduce[float64](pol, n, sumReduce{x: x})
			}
		}
	default:
		return k.Unsupported(v)
	}
	k.SetChecksum(sum)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *ReduceSum) TearDown() { k.x = nil }
