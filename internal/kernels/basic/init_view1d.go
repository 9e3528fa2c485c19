package basic

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// InitView1D implements Basic_INIT_VIEW1D: initialize an array through a
// 1-D data view, measuring view-indexing overhead against raw pointers.
type InitView1D struct {
	kernels.KernelBase
	a []float64
	n int
}

func init() { kernels.Register(NewInitView1D) }

// NewInitView1D constructs the INIT_VIEW1D kernel.
func NewInitView1D() kernels.Kernel {
	return &InitView1D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "INIT_VIEW1D",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatView},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *InitView1D) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.a = rp.Alloc(k.n)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    0,
		BytesWritten: 8 * n,
		Flops:        1 * n,
	})
	mix := unitMix(1, 0, 1, 6, 1, k.n)
	k.SetMix(mix)
}

const initView1DVal = 0.00000123

// Run implements kernels.Kernel.
func (k *InitView1D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a := k.a
	view := raja.NewView1(a)
	body := func(i int) { a[i] = initView1DVal * float64(i+1) }
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					a[i] = initView1DVal * float64(i+1)
				}
			},
			body,
			func(_ raja.Ctx, i int) {
				view.Set(i, initView1DVal*float64(i+1))
			})
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(a))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *InitView1D) TearDown() { k.a = nil }
