package lcals

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// GenLinRecur implements Lcals_GEN_LIN_RECUR: the general linear
// recurrence fragment. As in the suite's parallel variants, the recurrence
// scalar is captured by value per iteration, making the two band sweeps
// data-parallel while preserving the original memory pattern (a forward
// and a reversed sweep over the band arrays).
type GenLinRecur struct {
	kernels.KernelBase
	b5, sa, sb []float64
	stb5       float64
	kb5i       int
	n          int
}

func init() { kernels.Register(NewGenLinRecur) }

// NewGenLinRecur constructs the GEN_LIN_RECUR kernel.
func NewGenLinRecur() kernels.Kernel {
	return &GenLinRecur{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "GEN_LIN_RECUR",
		Group:       kernels.Lcals,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *GenLinRecur) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.kb5i = 0
	k.b5 = rp.Alloc(k.n + k.kb5i + 1)
	k.sa = rp.Alloc(k.n + 1)
	k.sb = rp.Alloc(k.n + 1)
	kernels.InitData(k.sa, 1.0)
	kernels.InitData(k.sb, 2.0)
	k.stb5 = 0.0153
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    2 * 16 * n,
		BytesWritten: 2 * 8 * n,
		Flops:        4 * n,
	})
	k.SetMix(unitMix(4, 4, 2, 3, 3, k.n))
}

// Run implements kernels.Kernel.
func (k *GenLinRecur) Run(v kernels.VariantID, rp kernels.RunParams) error {
	b5, sa, sb := k.b5, k.sa, k.sb
	stb5, kb5i, n := k.stb5, k.kb5i, k.n
	// Forward sweep.
	fwd := func(kk int) { b5[kk+kb5i] = sa[kk] + stb5*sb[kk] }
	// Reversed sweep (i runs n-1..0 as k runs 0..n-1).
	rev := func(kk int) {
		i := n - kk - 1
		b5[i+kb5i] = sa[i] - stb5*sb[i]
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, n,
			func(lo, hi int) {
				for kk := lo; kk < hi; kk++ {
					fwd(kk)
				}
			},
			fwd,
			func(_ raja.Ctx, kk int) { fwd(kk) })
		if err != nil {
			return k.Unsupported(v)
		}
		err = kernels.RunVariant(v, rp, n,
			func(lo, hi int) {
				for kk := lo; kk < hi; kk++ {
					rev(kk)
				}
			},
			rev,
			func(_ raja.Ctx, kk int) { rev(kk) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(b5))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *GenLinRecur) TearDown() { k.b5, k.sa, k.sb = nil, nil, nil }
