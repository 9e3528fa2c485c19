package algorithms

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Memset implements Algorithm_MEMSET: fill an array with a scalar.
type Memset struct {
	kernels.KernelBase
	x   []float64
	val float64
	n   int
}

func init() { kernels.Register(NewMemset) }

// NewMemset constructs the MEMSET kernel.
func NewMemset() kernels.Kernel {
	return &Memset{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "MEMSET",
		Group:       kernels.Algorithms,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Memset) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	k.val = 0.123
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    0,
		BytesWritten: 8 * n,
		Flops:        0,
	})
	k.SetMix(memMix(0, 0, 1, 1, k.n))
}

// Run implements kernels.Kernel.
func (k *Memset) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, val := k.x, k.val
	body := func(i int) { x[i] = val }
	span := func(lo, hi int) { raja.FillSpan(x, val, lo, hi) }
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		if err := kernels.RunVariant(v, rp, k.n, span, body); err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(x))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Memset) TearDown() { k.x = nil }
