package lcals

import "rajaperf/internal/kernels"

// IntPredict implements Lcals_INT_PREDICT: the integrate-predictor
// polynomial update over a 13-plane array.
type IntPredict struct {
	kernels.KernelBase
	px                                           []float64
	dm22, dm23, dm24, dm25, dm26, dm27, dm28, c0 float64
	n                                            int
}

func init() { kernels.Register(NewIntPredict) }

// NewIntPredict constructs the INT_PREDICT kernel.
func NewIntPredict() kernels.Kernel {
	return &IntPredict{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "INT_PREDICT",
		Group:       kernels.Lcals,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *IntPredict) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.px = rp.Alloc(13 * k.n)
	kernels.InitData(k.px, 1.0)
	k.dm22, k.dm23, k.dm24 = 0.2, 0.3, 0.4
	k.dm25, k.dm26, k.dm27 = 0.5, 0.6, 0.7
	k.dm28, k.c0 = 0.8, 0.9
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    10 * 8 * n,
		BytesWritten: 8 * n,
		Flops:        17 * n,
	})
	mix := unitMix(17, 10, 1, 3, 13, k.n)
	mix.FootprintKB = 1.0
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *IntPredict) Run(v kernels.VariantID, rp kernels.RunParams) error {
	px, n := k.px, k.n
	dm22, dm23, dm24, dm25 := k.dm22, k.dm23, k.dm24, k.dm25
	dm26, dm27, dm28, c0 := k.dm26, k.dm27, k.dm28, k.c0
	body := func(i int) {
		px[i] = dm28*px[i+12*n] + dm27*px[i+11*n] + dm26*px[i+10*n] +
			dm25*px[i+9*n] + dm24*px[i+8*n] + dm23*px[i+7*n] +
			dm22*px[i+6*n] +
			c0*(px[i+4*n]+px[i+5*n]) + px[i+2*n]
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					body(i)
				}
			},
			body)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(px[:n]))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *IntPredict) TearDown() { k.px = nil }
