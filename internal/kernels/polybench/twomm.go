package polybench

import "rajaperf/internal/kernels"

// TwoMM implements Polybench_2MM: two chained matrix products,
// tmp = alpha*A*B then D = tmp*C + beta*D.
type TwoMM struct {
	kernels.KernelBase
	a, b, c, dd, tmp []float64
	alpha, beta      float64
	n                int
}

func init() { kernels.Register(NewTwoMM) }

// NewTwoMM constructs the 2MM kernel.
func NewTwoMM() kernels.Kernel {
	return &TwoMM{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "2MM",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN32,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *TwoMM) SetUp(rp kernels.RunParams) {
	k.n = edge2D(rp.EffectiveSize(k.Info()), 5)
	d := k.n
	for _, p := range []*[]float64{&k.a, &k.b, &k.c, &k.dd, &k.tmp} {
		*p = rp.Alloc(d * d)
	}
	kernels.InitData(k.a, 1.0)
	kernels.InitData(k.b, 2.0)
	kernels.InitData(k.c, 3.0)
	k.alpha, k.beta = 1.5, 1.2
	nd := float64(d)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 5 * nd * nd,
		BytesWritten: 8 * 2 * nd * nd,
		Flops:        4*nd*nd*nd + nd*nd,
	})
	k.SetMix(matMix(5 * 8 * nd * nd))
}

// Run implements kernels.Kernel.
func (k *TwoMM) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, b, c, dd, tmp, d := k.a, k.b, k.c, k.dd, k.tmp, k.n
	alpha, beta := k.alpha, k.beta
	row1 := func(i int) {
		for j := 0; j < d; j++ {
			tmp[i*d+j] = 0
		}
		for l := 0; l < d; l++ {
			av := alpha * a[i*d+l]
			for j := 0; j < d; j++ {
				tmp[i*d+j] += av * b[l*d+j]
			}
		}
	}
	row2 := func(i int) {
		for j := 0; j < d; j++ {
			dd[i*d+j] *= beta
		}
		for l := 0; l < d; l++ {
			tv := tmp[i*d+l]
			for j := 0; j < d; j++ {
				dd[i*d+j] += tv * c[l*d+j]
			}
		}
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		kernels.InitDataConst(dd, 0.25)
		for _, row := range []func(int){row1, row2} {
			row := row
			err := kernels.RunVariant(v, rp, d,
				func(lo, hi int) {
					for i := lo; i < hi; i++ {
						row(i)
					}
				},
				row)
			if err != nil {
				return k.Unsupported(v)
			}
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(dd))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *TwoMM) TearDown() { k.a, k.b, k.c, k.dd, k.tmp = nil, nil, nil, nil, nil }
