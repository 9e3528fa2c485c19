package lcals

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Eos implements Lcals_EOS: the equation-of-state fragment, a 16-flop
// polynomial over four streamed arrays.
type Eos struct {
	kernels.KernelBase
	x, y, z, u []float64
	q, r, t    float64
	n          int
}

func init() { kernels.Register(NewEos) }

// NewEos constructs the EOS kernel.
func NewEos() kernels.Kernel {
	return &Eos{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "EOS",
		Group:       kernels.Lcals,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
		Mono:        true,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Eos) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n + 7)
	k.y = rp.Alloc(k.n + 7)
	k.z = rp.Alloc(k.n + 7)
	k.u = rp.Alloc(k.n + 7)
	kernels.InitData(k.y, 1.0)
	kernels.InitData(k.z, 2.0)
	kernels.InitData(k.u, 3.0)
	k.q, k.r, k.t = 0.00100, 0.00061, 0.00027
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    24 * n,
		BytesWritten: 8 * n,
		Flops:        16 * n,
	})
	k.SetMix(unitMix(16, 8, 1, 3, 4, k.n))
}

// Run implements kernels.Kernel.
func (k *Eos) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y, z, u := k.x, k.y, k.z, k.u
	q, rr, t := k.q, k.r, k.t
	body := func(i int) {
		x[i] = u[i] + rr*(z[i]+rr*y[i]) +
			t*(u[i+3]+rr*(u[i+2]+rr*u[i+1])+
				t*(u[i+6]+q*(u[i+5]+q*u[i+4])))
	}
	span := eosSpan{x: x, y: y, z: z, u: u, q: q, r: rr, t: t}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariantG(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					x[i] = u[i] + rr*(z[i]+rr*y[i]) +
						t*(u[i+3]+rr*(u[i+2]+rr*u[i+1])+
							t*(u[i+6]+q*(u[i+5]+q*u[i+4])))
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
func (k *Eos) TearDown() { k.x, k.y, k.z, k.u = nil, nil, nil, nil }
