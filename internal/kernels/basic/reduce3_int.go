package basic

import (
	"math"
	"sync"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Reduce3Int implements Basic_REDUCE3_INT: simultaneous sum, min, and max
// reductions over an integer vector.
type Reduce3Int struct {
	kernels.KernelBase
	vec []int64
	n   int
}

func init() { kernels.Register(NewReduce3Int) }

// NewReduce3Int constructs the REDUCE3_INT kernel.
func NewReduce3Int() kernels.Kernel {
	return &Reduce3Int{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "REDUCE3_INT",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Reduce3Int) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.vec = rp.AllocI64(k.n)
	kernels.InitIntsRand(k.vec, 12345, 1000)
	if len(k.vec) > 0 {
		k.vec[k.n/3] = -57
		k.vec[2*k.n/3] = 2001
	}
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 0,
		Flops:        0,
	})
	mix := unitMix(0, 1, 0, 3, 1, k.n)
	mix.IntOps = 3
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *Reduce3Int) Run(v kernels.VariantID, rp kernels.RunParams) error {
	vec, n := k.vec, k.n
	reps := rp.EffectiveReps(k.Info())
	var vsum, vmin, vmax int64
	reset := func() { vsum, vmin, vmax = 0, math.MaxInt64, math.MinInt64 }
	fold := func(x int64) {
		vsum += x
		if x < vmin {
			vmin = x
		}
		if x > vmax {
			vmax = x
		}
	}
	switch v {
	case kernels.BaseSeq:
		for r := 0; r < reps; r++ {
			reset()
			for i := 0; i < n; i++ {
				x := vec[i]
				vsum += x
				if x < vmin {
					vmin = x
				}
				if x > vmax {
					vmax = x
				}
			}
		}
	case kernels.LambdaSeq:
		for r := 0; r < reps; r++ {
			reset()
			for i := 0; i < n; i++ {
				fold(vec[i])
			}
		}
	case kernels.BaseOpenMP, kernels.LambdaOpenMP, kernels.BaseGPU:
		for r := 0; r < reps; r++ {
			reset()
			var mu sync.Mutex
			run := func(lo, hi int) {
				ls, lmin, lmax := int64(0), int64(math.MaxInt64), int64(math.MinInt64)
				for i := lo; i < hi; i++ {
					x := vec[i]
					ls += x
					if x < lmin {
						lmin = x
					}
					if x > lmax {
						lmax = x
					}
				}
				mu.Lock()
				vsum += ls
				if lmin < vmin {
					vmin = lmin
				}
				if lmax > vmax {
					vmax = lmax
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
		// Fused reduction: all three folds share one dispatch and one
		// set of per-lane partials.
		for r := 0; r < reps; r++ {
			acc := raja.ForallReduce[reduce3Acc](pol, n, reduce3Body{vec: vec})
			vsum, vmin, vmax = acc.Sum, acc.Min, acc.Max
		}
	default:
		return k.Unsupported(v)
	}
	k.SetChecksum(float64(vsum) + float64(vmin) + float64(vmax))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Reduce3Int) TearDown() { k.vec = nil }
