package lcals

import "rajaperf/internal/kernels"

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
	span := func(lo, hi int) {
		x := x[lo:hi]
		y := y[lo:hi][:len(x)]
		z := z[lo:hi][:len(x)]
		u0 := u[lo:hi][:len(x)]
		u1 := u[lo+1 : hi+1][:len(x)]
		u2 := u[lo+2 : hi+2][:len(x)]
		u3 := u[lo+3 : hi+3][:len(x)]
		u4 := u[lo+4 : hi+4][:len(x)]
		u5 := u[lo+5 : hi+5][:len(x)]
		u6 := u[lo+6 : hi+6][:len(x)]
		for i := range x {
			x[i] = u0[i] + rr*(z[i]+rr*y[i]) +
				t*(u3[i]+rr*(u2[i]+rr*u1[i])+
					t*(u6[i]+q*(u5[i]+q*u4[i])))
		}
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		if err := kernels.RunVariant(v, rp, k.n, span, body); err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(x[:k.n]))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Eos) TearDown() { k.x, k.y, k.z, k.u = nil, nil, nil, nil }
