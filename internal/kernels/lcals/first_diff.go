package lcals

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// FirstDiff implements Lcals_FIRST_DIFF: x[i] = y[i+1] - y[i].
type FirstDiff struct {
	kernels.KernelBase
	x, y []float64
	n    int
}

func init() { kernels.Register(NewFirstDiff) }

// NewFirstDiff constructs the FIRST_DIFF kernel.
func NewFirstDiff() kernels.Kernel {
	return &FirstDiff{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "FIRST_DIFF",
		Group:       kernels.Lcals,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
		Mono:        true,
	})}
}

// SetUp implements kernels.Kernel.
func (k *FirstDiff) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	k.y = rp.Alloc(k.n + 1)
	kernels.InitData(k.y, 1.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n, // y[i+1] hits the line loaded for y[i]
		BytesWritten: 8 * n,
		Flops:        1 * n,
	})
	k.SetMix(unitMix(1, 2, 1, 4, 2, k.n))
}

// Run implements kernels.Kernel.
func (k *FirstDiff) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y := k.x, k.y
	body := func(i int) { x[i] = y[i+1] - y[i] }
	span := firstDiffSpan{x: x, y: y}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariantG(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					x[i] = y[i+1] - y[i]
				}
			},
			body,
			func(_ raja.Ctx, i int) { x[i] = y[i+1] - y[i] },
			span)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(x))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *FirstDiff) TearDown() { k.x, k.y = nil, nil }
