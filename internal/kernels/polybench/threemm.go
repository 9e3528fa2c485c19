package polybench

import "rajaperf/internal/kernels"

// ThreeMM implements Polybench_3MM: three chained matrix products,
// E = A*B, F = C*D, G = E*F.
type ThreeMM struct {
	kernels.KernelBase
	a, b, c, d, e, f, g []float64
	n                   int
}

func init() { kernels.Register(NewThreeMM) }

// NewThreeMM constructs the 3MM kernel.
func NewThreeMM() kernels.Kernel {
	return &ThreeMM{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "3MM",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN32,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *ThreeMM) SetUp(rp kernels.RunParams) {
	k.n = edge2D(rp.EffectiveSize(k.Info()), 7)
	d := k.n
	for _, p := range []*[]float64{&k.a, &k.b, &k.c, &k.d, &k.e, &k.f, &k.g} {
		*p = rp.Alloc(d * d)
	}
	kernels.InitData(k.a, 1.0)
	kernels.InitData(k.b, 2.0)
	kernels.InitData(k.c, 3.0)
	kernels.InitData(k.d, 4.0)
	nd := float64(d)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 6 * nd * nd,
		BytesWritten: 8 * 3 * nd * nd,
		Flops:        6 * nd * nd * nd,
	})
	k.SetMix(matMix(7 * 8 * nd * nd))
}

// matRow computes row i of dst = src1*src2 on edge d.
func matRow(dst, src1, src2 []float64, d, i int) {
	for j := 0; j < d; j++ {
		dst[i*d+j] = 0
	}
	for l := 0; l < d; l++ {
		s := src1[i*d+l]
		for j := 0; j < d; j++ {
			dst[i*d+j] += s * src2[l*d+j]
		}
	}
}

// Run implements kernels.Kernel.
func (k *ThreeMM) Run(v kernels.VariantID, rp kernels.RunParams) error {
	d := k.n
	phases := []func(int){
		func(i int) { matRow(k.e, k.a, k.b, d, i) },
		func(i int) { matRow(k.f, k.c, k.d, d, i) },
		func(i int) { matRow(k.g, k.e, k.f, d, i) },
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		for _, row := range phases {
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
	k.SetChecksum(kernels.ChecksumSlice(k.g))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *ThreeMM) TearDown() {
	k.a, k.b, k.c, k.d, k.e, k.f, k.g = nil, nil, nil, nil, nil, nil, nil
}
