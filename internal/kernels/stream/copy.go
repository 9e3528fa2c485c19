package stream

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Copy implements Stream_COPY: c[i] = a[i].
type Copy struct {
	kernels.KernelBase
	a, c []float64
	n    int
}

func init() { kernels.Register(NewCopy) }

// NewCopy constructs the COPY kernel.
func NewCopy() kernels.Kernel {
	return &Copy{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "COPY",
		Group:       kernels.Stream,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    allVariants,
		Mono:        true,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Copy) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.a = rp.Alloc(k.n)
	k.c = rp.Alloc(k.n)
	kernels.InitData(k.a, 1.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 8 * n,
		Flops:        0,
	})
	k.SetMix(streamMix(0, 1, 1, k.n))
}

// Run implements kernels.Kernel.
func (k *Copy) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, c := k.a, k.c
	body := func(i int) { c[i] = a[i] }
	span := copySpan{a: a, c: c}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariantG(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					c[i] = a[i]
				}
			},
			body,
			func(_ raja.Ctx, i int) { c[i] = a[i] },
			span)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(c))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Copy) TearDown() { k.a, k.c = nil, nil }
