package basic

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// DaxpyAtomic implements Basic_DAXPY_ATOMIC: y[i] gets a*x[i] added with an
// atomic RMW, the non-contended atomic pattern.
type DaxpyAtomic struct {
	kernels.KernelBase
	x, y []float64
	a    float64
	n    int
}

func init() { kernels.Register(NewDaxpyAtomic) }

// NewDaxpyAtomic constructs the DAXPY_ATOMIC kernel.
func NewDaxpyAtomic() kernels.Kernel {
	return &DaxpyAtomic{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "DAXPY_ATOMIC",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatAtomic},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *DaxpyAtomic) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	k.y = rp.Alloc(k.n)
	kernels.InitData(k.x, 1.0)
	kernels.InitDataConst(k.y, 0.5)
	k.a = 3.0
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    16 * n,
		BytesWritten: 8 * n,
		Flops:        2 * n,
	})
	mix := unitMix(2, 2, 1, 2, 2, k.n)
	mix.Atomics = 1
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *DaxpyAtomic) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y, a := k.x, k.y, k.a
	body := func(i int) { raja.AtomicAddFloat64(&y[i], a*x[i]) }
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					raja.AtomicAddFloat64(&y[i], a*x[i])
				}
			},
			body,
			func(_ raja.Ctx, i int) { raja.AtomicAddFloat64(&y[i], a*x[i]) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(y))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *DaxpyAtomic) TearDown() { k.x, k.y = nil, nil }
