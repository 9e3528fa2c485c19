package lcals

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// TridiagElim implements Lcals_TRIDIAG_ELIM: one step of tridiagonal
// elimination, xout[i] = z[i] * (y[i] - xin[i-1]), written with separate
// input and output vectors so all variants parallelize (as in the suite).
type TridiagElim struct {
	kernels.KernelBase
	xout, xin, y, z []float64
	n               int
}

func init() { kernels.Register(NewTridiagElim) }

// NewTridiagElim constructs the TRIDIAG_ELIM kernel.
func NewTridiagElim() kernels.Kernel {
	return &TridiagElim{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "TRIDIAG_ELIM",
		Group:       kernels.Lcals,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *TridiagElim) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.xout = rp.Alloc(k.n)
	k.xin = rp.Alloc(k.n)
	k.y = rp.Alloc(k.n)
	k.z = rp.Alloc(k.n)
	kernels.InitData(k.xin, 1.0)
	kernels.InitData(k.y, 2.0)
	kernels.InitData(k.z, 3.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    24 * n,
		BytesWritten: 8 * n,
		Flops:        2 * n,
	})
	k.SetMix(unitMix(2, 3, 1, 4, 4, k.n))
}

// Run implements kernels.Kernel. Iterations map to indices [1, n).
func (k *TridiagElim) Run(v kernels.VariantID, rp kernels.RunParams) error {
	xout, xin, y, z := k.xout, k.xin, k.y, k.z
	body := func(i int) { xout[i] = z[i] * (y[i] - xin[i-1]) }
	m := k.n - 1
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, m,
			func(lo, hi int) {
				for i := lo + 1; i < hi+1; i++ {
					xout[i] = z[i] * (y[i] - xin[i-1])
				}
			},
			func(i int) { body(i + 1) },
			func(_ raja.Ctx, i int) { body(i + 1) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(xout))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *TridiagElim) TearDown() { k.xout, k.xin, k.y, k.z = nil, nil, nil, nil }
