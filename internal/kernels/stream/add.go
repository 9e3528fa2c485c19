package stream

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Add implements Stream_ADD: c[i] = a[i] + b[i].
type Add struct {
	kernels.KernelBase
	a, b, c []float64
	n       int
}

func init() { kernels.Register(NewAdd) }

// NewAdd constructs the ADD kernel.
func NewAdd() kernels.Kernel {
	return &Add{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "ADD",
		Group:       kernels.Stream,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    allVariants,
		Mono:        true,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Add) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.a = rp.Alloc(k.n)
	k.b = rp.Alloc(k.n)
	k.c = rp.Alloc(k.n)
	kernels.InitData(k.a, 1.0)
	kernels.InitData(k.b, 2.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    16 * n,
		BytesWritten: 8 * n,
		Flops:        1 * n,
	})
	k.SetMix(streamMix(1, 2, 1, k.n))
}

// Run implements kernels.Kernel.
func (k *Add) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, b, c := k.a, k.b, k.c
	body := func(i int) { c[i] = a[i] + b[i] }
	span := addSpan{a: a, b: b, c: c}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariantG(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					c[i] = a[i] + b[i]
				}
			},
			body,
			func(_ raja.Ctx, i int) { c[i] = a[i] + b[i] },
			span)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(c))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Add) TearDown() { k.a, k.b, k.c = nil, nil, nil }
