package basic

import (
	"sync"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// TrapInt implements Basic_TRAP_INT: trapezoidal integration of a rational
// function — a pure-compute reduction with no array traffic.
type TrapInt struct {
	kernels.KernelBase
	x0, xp, y, yp, h float64
	n                int
}

func init() { kernels.Register(NewTrapInt) }

// NewTrapInt constructs the TRAP_INT kernel.
func NewTrapInt() kernels.Kernel {
	return &TrapInt{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "TRAP_INT",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *TrapInt) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x0, k.xp = 0.1, 0.7
	k.y, k.yp = 0.3, 0.95
	k.h = (k.xp - k.x0) / float64(k.n)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    0,
		BytesWritten: 0,
		Flops:        10 * n,
	})
	k.SetMix(kernels.Mix{
		Flops: 10, IntOps: 1,
		Pattern: kernels.AccessUnit, ILP: 2,
		WorkingSetBytes: 64,
		FootprintKB:     0.5,
		Reuse:           1,
	})
}

// trapFunc is the suite's integrand.
func trapFunc(x, y, xp, yp float64) float64 {
	denom := (x-xp)*(x-xp) + (y-yp)*(y-yp)
	return 0.0419 / denom
}

// Run implements kernels.Kernel.
func (k *TrapInt) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x0, xp, y, yp, h, n := k.x0, k.xp, k.y, k.yp, k.h, k.n
	reps := rp.EffectiveReps(k.Info())
	f := func(i int) float64 {
		x := x0 + float64(i)*h
		return trapFunc(x, y, xp, yp)
	}
	var sumx float64
	switch v {
	case kernels.BaseSeq:
		for r := 0; r < reps; r++ {
			sumx = 0
			for i := 0; i < n; i++ {
				x := x0 + float64(i)*h
				sumx += trapFunc(x, y, xp, yp)
			}
		}
	case kernels.LambdaSeq:
		for r := 0; r < reps; r++ {
			sumx = 0
			for i := 0; i < n; i++ {
				sumx += f(i)
			}
		}
	case kernels.BaseOpenMP, kernels.LambdaOpenMP, kernels.BaseGPU:
		for r := 0; r < reps; r++ {
			sumx = 0
			var mu sync.Mutex
			run := func(lo, hi int) {
				local := 0.0
				for i := lo; i < hi; i++ {
					local += f(i)
				}
				mu.Lock()
				sumx += local
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
			red := raja.NewReduceSum(pol, 0.0)
			raja.Forall(pol, n, func(c raja.Ctx, i int) {
				red.Add(c, f(i))
			})
			sumx = red.Get()
		}
	default:
		return k.Unsupported(v)
	}
	k.SetChecksum(sumx * h)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *TrapInt) TearDown() {}
