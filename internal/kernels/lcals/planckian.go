package lcals

import (
	"math"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Planckian implements Lcals_PLANCKIAN: the Planckian-distribution
// fragment y[i] = u[i]/v[i]; w[i] = x[i]/(exp(y[i]) - 1), dominated by the
// transcendental.
type Planckian struct {
	kernels.KernelBase
	x, y, u, v, w []float64
	n             int
}

func init() { kernels.Register(NewPlanckian) }

// NewPlanckian constructs the PLANCKIAN kernel.
func NewPlanckian() kernels.Kernel {
	return &Planckian{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "PLANCKIAN",
		Group:       kernels.Lcals,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Planckian) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	k.y = rp.Alloc(k.n)
	k.u = rp.Alloc(k.n)
	k.v = rp.Alloc(k.n)
	k.w = rp.Alloc(k.n)
	kernels.InitData(k.x, 1.0)
	kernels.InitData(k.u, 2.0)
	// Keep v bounded away from zero so exp stays finite.
	for i := range k.v {
		k.v[i] = 0.5 + 0.1*float64(i%10)
	}
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    24 * n,
		BytesWritten: 16 * n,
		Flops:        20 * n, // exp counted as ~16
	})
	mix := unitMix(20, 3, 2, 2, 5, k.n)
	mix.FootprintKB = 1.5
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *Planckian) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y, u, vv, w := k.x, k.y, k.u, k.v, k.w
	body := func(i int) {
		y[i] = u[i] / vv[i]
		w[i] = x[i] / (math.Exp(y[i]) - 1.0)
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					y[i] = u[i] / vv[i]
					w[i] = x[i] / (math.Exp(y[i]) - 1.0)
				}
			},
			body,
			func(_ raja.Ctx, i int) { body(i) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(w))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Planckian) TearDown() {
	k.x, k.y, k.u, k.v, k.w = nil, nil, nil, nil, nil
}
