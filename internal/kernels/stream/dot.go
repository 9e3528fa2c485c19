package stream

import (
	"sync"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Dot implements Stream_DOT: dot += a[i] * b[i], the group's reduction
// kernel.
type Dot struct {
	kernels.KernelBase
	a, b []float64
	n    int
}

func init() { kernels.Register(NewDot) }

// NewDot constructs the DOT kernel.
func NewDot() kernels.Kernel {
	return &Dot{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "DOT",
		Group:       kernels.Stream,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    allVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Dot) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.a = rp.Alloc(k.n)
	k.b = rp.Alloc(k.n)
	kernels.InitData(k.a, 1.0)
	kernels.InitData(k.b, 2.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    16 * n,
		BytesWritten: 0,
		Flops:        2 * n,
	})
	mix := streamMix(2, 2, 0, k.n)
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *Dot) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, b, n := k.a, k.b, k.n
	reps := rp.EffectiveReps(k.Info())
	var dot float64
	switch v {
	case kernels.BaseSeq:
		for r := 0; r < reps; r++ {
			dot = 0
			for i := 0; i < n; i++ {
				dot += a[i] * b[i]
			}
		}
	case kernels.LambdaSeq:
		for r := 0; r < reps; r++ {
			dot = 0
			body := func(i int) { dot += a[i] * b[i] }
			for i := 0; i < n; i++ {
				body(i)
			}
		}
	case kernels.BaseOpenMP, kernels.LambdaOpenMP, kernels.BaseGPU:
		for r := 0; r < reps; r++ {
			partials := make([]float64, 0, 64)
			var mu sync.Mutex
			run := func(lo, hi int) {
				var local float64
				if v == kernels.LambdaOpenMP {
					body := func(i int) { local += a[i] * b[i] }
					for i := lo; i < hi; i++ {
						body(i)
					}
				} else {
					for i := lo; i < hi; i++ {
						local += a[i] * b[i]
					}
				}
				mu.Lock()
				partials = append(partials, local)
				mu.Unlock()
			}
			if v == kernels.BaseGPU {
				rp.ExecPool().DynamicBlocks(rp.Workers, rp.GPUBlock, n, run)
			} else {
				rp.ExecPool().StaticChunks(rp.Workers, n, func(_, lo, hi int) { run(lo, hi) })
			}
			dot = 0
			for _, p := range partials {
				dot += p
			}
		}
	case kernels.RAJASeq, kernels.RAJAOpenMP, kernels.RAJAGPU:
		pol := rp.Policy(v)
		// Fused reduction: one dispatch, whole-granule partials, no
		// reducer allocation.
		for r := 0; r < reps; r++ {
			dot = raja.ForallReduce[float64](pol, n, dotReduce{a: a, b: b})
		}
	default:
		return k.Unsupported(v)
	}
	k.SetChecksum(dot)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Dot) TearDown() { k.a, k.b = nil, nil }
