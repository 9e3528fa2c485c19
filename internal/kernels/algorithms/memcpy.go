package algorithms

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Memcpy implements Algorithm_MEMCPY: a bulk copy between two arrays. The
// Base variants use the runtime's optimized copy; the Lambda and RAJA
// variants copy through the loop abstraction, exposing abstraction
// overhead on a pure-bandwidth operation.
type Memcpy struct {
	kernels.KernelBase
	src, dst []float64
	n        int
}

func init() { kernels.Register(NewMemcpy) }

// NewMemcpy constructs the MEMCPY kernel.
func NewMemcpy() kernels.Kernel {
	return &Memcpy{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "MEMCPY",
		Group:       kernels.Algorithms,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
		Mono:        true,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Memcpy) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.src = rp.Alloc(k.n)
	k.dst = rp.Alloc(k.n)
	kernels.InitData(k.src, 1.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 8 * n,
		Flops:        0,
	})
	k.SetMix(memMix(0, 1, 1, 2, k.n))
}

// Run implements kernels.Kernel.
func (k *Memcpy) Run(v kernels.VariantID, rp kernels.RunParams) error {
	src, dst := k.src, k.dst
	body := func(i int) { dst[i] = src[i] }
	span := memcpySpan{src: src, dst: dst}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariantG(v, rp, k.n,
			func(lo, hi int) { copy(dst[lo:hi], src[lo:hi]) },
			body,
			func(_ raja.Ctx, i int) { dst[i] = src[i] },
			span)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(dst))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Memcpy) TearDown() { k.src, k.dst = nil, nil }
