package stream

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Mul implements Stream_MUL: b[i] = alpha * c[i].
type Mul struct {
	kernels.KernelBase
	b, c  []float64
	alpha float64
	n     int
}

func init() { kernels.Register(NewMul) }

// NewMul constructs the MUL kernel.
func NewMul() kernels.Kernel {
	return &Mul{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "MUL",
		Group:       kernels.Stream,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    allVariants,
		Mono:        true,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Mul) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.b = rp.Alloc(k.n)
	k.c = rp.Alloc(k.n)
	kernels.InitData(k.c, 3.0)
	k.alpha = 0.62
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 8 * n,
		Flops:        1 * n,
	})
	k.SetMix(streamMix(1, 1, 1, k.n))
}

// Run implements kernels.Kernel.
func (k *Mul) Run(v kernels.VariantID, rp kernels.RunParams) error {
	b, c, alpha := k.b, k.c, k.alpha
	body := func(i int) { b[i] = alpha * c[i] }
	span := mulSpan{b: b, c: c, alpha: alpha}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariantG(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					b[i] = alpha * c[i]
				}
			},
			body,
			func(_ raja.Ctx, i int) { b[i] = alpha * c[i] },
			span)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(b))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Mul) TearDown() { k.b, k.c = nil, nil }
