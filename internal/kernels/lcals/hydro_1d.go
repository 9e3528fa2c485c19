package lcals

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Hydro1D implements Lcals_HYDRO_1D: the 1-D hydrodynamics fragment
// x[i] = q + y[i]*(r*z[i+10] + t*z[i+11]).
type Hydro1D struct {
	kernels.KernelBase
	x, y, z []float64
	q, r, t float64
	n       int
}

func init() { kernels.Register(NewHydro1D) }

// NewHydro1D constructs the HYDRO_1D kernel.
func NewHydro1D() kernels.Kernel {
	return &Hydro1D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "HYDRO_1D",
		Group:       kernels.Lcals,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
		Mono:        true,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Hydro1D) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n + 12)
	k.y = rp.Alloc(k.n + 12)
	k.z = rp.Alloc(k.n + 12)
	kernels.InitData(k.y, 1.0)
	kernels.InitData(k.z, 2.0)
	k.q, k.r, k.t = 0.00100, 0.00061, 0.00027
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    16 * n,
		BytesWritten: 8 * n,
		Flops:        5 * n,
	})
	k.SetMix(unitMix(5, 3, 1, 4, 3, k.n))
}

// Run implements kernels.Kernel.
func (k *Hydro1D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y, z, q, rr, t := k.x, k.y, k.z, k.q, k.r, k.t
	body := func(i int) { x[i] = q + y[i]*(rr*z[i+10]+t*z[i+11]) }
	span := hydro1DSpan{x: x, y: y, z: z, q: q, r: rr, t: t}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariantG(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					x[i] = q + y[i]*(rr*z[i+10]+t*z[i+11])
				}
			},
			body,
			func(_ raja.Ctx, i int) { body(i) },
			span)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(x[:k.n]))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Hydro1D) TearDown() { k.x, k.y, k.z = nil, nil, nil }
