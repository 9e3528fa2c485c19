package basic

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// InitView1DOffset implements Basic_INIT_VIEW1D_OFFSET: initialize an
// array through a 1-based offset view (RAJA OffsetLayout).
type InitView1DOffset struct {
	kernels.KernelBase
	a []float64
	n int
}

func init() { kernels.Register(NewInitView1DOffset) }

// NewInitView1DOffset constructs the INIT_VIEW1D_OFFSET kernel.
func NewInitView1DOffset() kernels.Kernel {
	return &InitView1DOffset{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "INIT_VIEW1D_OFFSET",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatView},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *InitView1DOffset) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.a = rp.Alloc(k.n)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    0,
		BytesWritten: 8 * n,
		Flops:        1 * n,
	})
	mix := unitMix(1, 0, 1, 6, 1, k.n)
	mix.IntOps = 1 // offset translation
	k.SetMix(mix)
}

// Run implements kernels.Kernel. The iteration space is [1, n+1); index i
// stores to underlying element i-1.
func (k *InitView1DOffset) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a := k.a
	view := raja.NewView1Offset(a, 1)
	lambda := func(i int) { a[i] = initView1DVal * float64(i+1) }
	// Span [lo, hi) covers the 1-based indices lo+1..hi. The RAJA
	// variants write through the offset view, the feature under test;
	// the others index the slice.
	var span func(lo, hi int)
	if v.IsRAJA() {
		span = func(lo, hi int) {
			for i := lo + 1; i < hi+1; i++ {
				view.Set(i, initView1DVal*float64(i))
			}
		}
	} else {
		span = func(lo, hi int) {
			for i := lo + 1; i < hi+1; i++ {
				a[i-1] = initView1DVal * float64(i)
			}
		}
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		if err := kernels.RunVariant(v, rp, k.n, span, lambda); err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(a))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *InitView1DOffset) TearDown() { k.a = nil }
