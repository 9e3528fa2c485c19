package basic

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Daxpy implements Basic_DAXPY: y[i] += a * x[i].
type Daxpy struct {
	kernels.KernelBase
	x, y []float64
	a    float64
	n    int
}

func init() { kernels.Register(NewDaxpy) }

// NewDaxpy constructs the DAXPY kernel.
func NewDaxpy() kernels.Kernel {
	return &Daxpy{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "DAXPY",
		Group:       kernels.Basic,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
		Mono:        true,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Daxpy) SetUp(rp kernels.RunParams) {
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
	k.SetMix(unitMix(2, 2, 1, 4, 2, k.n))
}

// Run implements kernels.Kernel.
func (k *Daxpy) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y, a := k.x, k.y, k.a
	body := func(i int) { y[i] += a * x[i] }
	span := daxpySpan{x: x, y: y, a: a}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariantG(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					y[i] += a * x[i]
				}
			},
			body,
			func(_ raja.Ctx, i int) { y[i] += a * x[i] },
			span)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(y))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Daxpy) TearDown() { k.x, k.y = nil, nil }
