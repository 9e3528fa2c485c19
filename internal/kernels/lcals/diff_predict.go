package lcals

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// DiffPredict implements Lcals_DIFF_PREDICT: the difference-predictor
// chain over a 14-plane array, a long dependent chain of subtractions with
// strided plane accesses.
type DiffPredict struct {
	kernels.KernelBase
	px, cx []float64
	n      int
}

func init() { kernels.Register(NewDiffPredict) }

// NewDiffPredict constructs the DIFF_PREDICT kernel.
func NewDiffPredict() kernels.Kernel {
	return &DiffPredict{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "DIFF_PREDICT",
		Group:       kernels.Lcals,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *DiffPredict) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.px = rp.Alloc(14 * k.n)
	k.cx = rp.Alloc(14 * k.n)
	kernels.InitData(k.px, 1.0)
	kernels.InitData(k.cx, 2.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    10 * 8 * n,
		BytesWritten: 10 * 8 * n,
		Flops:        9 * n,
	})
	mix := unitMix(9, 10, 10, 1.5, 28, k.n) // dependent chain: low ILP
	mix.FootprintKB = 1.0
	k.SetMix(mix)
}

func diffPredictBody(px, cx []float64, n int) func(int) {
	return func(i int) {
		ar := cx[i+4*n]
		br := ar - px[i+4*n]
		px[i+4*n] = ar
		cr := br - px[i+5*n]
		px[i+5*n] = br
		ar = cr - px[i+6*n]
		px[i+6*n] = cr
		br = ar - px[i+7*n]
		px[i+7*n] = ar
		cr = br - px[i+8*n]
		px[i+8*n] = br
		ar = cr - px[i+9*n]
		px[i+9*n] = cr
		br = ar - px[i+10*n]
		px[i+10*n] = ar
		cr = br - px[i+11*n]
		px[i+11*n] = br
		px[i+13*n] = cr - px[i+12*n]
		px[i+12*n] = cr
	}
}

// Run implements kernels.Kernel.
func (k *DiffPredict) Run(v kernels.VariantID, rp kernels.RunParams) error {
	body := diffPredictBody(k.px, k.cx, k.n)
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					body(i)
				}
			},
			body,
			func(_ raja.Ctx, i int) { body(i) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(k.px))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *DiffPredict) TearDown() { k.px, k.cx = nil, nil }
