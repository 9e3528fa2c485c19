package basic

import (
	"sync"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// PiReduce implements Basic_PI_REDUCE: the same quadrature as PI_ATOMIC
// expressed as a sum reduction, its scalable counterpart.
type PiReduce struct {
	kernels.KernelBase
	dx float64
	n  int
}

func init() { kernels.Register(NewPiReduce) }

// NewPiReduce constructs the PI_REDUCE kernel.
func NewPiReduce() kernels.Kernel {
	return &PiReduce{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "PI_REDUCE",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *PiReduce) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.dx = 1.0 / float64(k.n)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    0,
		BytesWritten: 0,
		Flops:        6 * n,
	})
	k.SetMix(kernels.Mix{
		Flops: 6, IntOps: 1,
		Pattern: kernels.AccessUnit, ILP: 2,
		WorkingSetBytes: 64,
		FootprintKB:     0.4,
		Reuse:           1,
	})
}

// Run implements kernels.Kernel.
func (k *PiReduce) Run(v kernels.VariantID, rp kernels.RunParams) error {
	dx, n := k.dx, k.n
	reps := rp.EffectiveReps(k.Info())
	f := func(i int) float64 {
		x := (float64(i) + 0.5) * dx
		return dx / (1.0 + x*x)
	}
	var pi float64
	switch v {
	case kernels.BaseSeq:
		for r := 0; r < reps; r++ {
			pi = 0
			for i := 0; i < n; i++ {
				x := (float64(i) + 0.5) * dx
				pi += dx / (1.0 + x*x)
			}
		}
	case kernels.LambdaSeq:
		for r := 0; r < reps; r++ {
			pi = 0
			for i := 0; i < n; i++ {
				pi += f(i)
			}
		}
	case kernels.BaseOpenMP, kernels.LambdaOpenMP, kernels.BaseGPU:
		for r := 0; r < reps; r++ {
			var mu sync.Mutex
			pi = 0
			run := func(lo, hi int) {
				local := 0.0
				for i := lo; i < hi; i++ {
					local += f(i)
				}
				mu.Lock()
				pi += local
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
		// Fused reduction: one dispatch, whole-granule partials, no
		// reducer allocation.
		for r := 0; r < reps; r++ {
			pi = raja.ForallReduce[float64](pol, n, piReduce{dx: dx})
		}
	default:
		return k.Unsupported(v)
	}
	k.SetChecksum(pi * 4.0)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *PiReduce) TearDown() {}
