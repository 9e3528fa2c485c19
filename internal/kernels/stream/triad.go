package stream

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Triad implements Stream_TRIAD: a[i] = b[i] + alpha*c[i]. It is the
// suite's achieved-bandwidth probe (Table II) and the reference line of
// Fig 9's speedup panels.
type Triad struct {
	kernels.KernelBase
	a, b, c []float64
	alpha   float64
	n       int
}

func init() { kernels.Register(NewTriad) }

// NewTriad constructs the TRIAD kernel.
func NewTriad() kernels.Kernel {
	return &Triad{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "TRIAD",
		Group:       kernels.Stream,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    allVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Triad) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.a = rp.Alloc(k.n)
	k.b = rp.Alloc(k.n)
	k.c = rp.Alloc(k.n)
	kernels.InitData(k.b, 1.0)
	kernels.InitData(k.c, 2.0)
	k.alpha = 0.62
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    16 * n,
		BytesWritten: 8 * n,
		Flops:        2 * n,
	})
	k.SetMix(streamMix(2, 2, 1, k.n))
}

// Run implements kernels.Kernel.
func (k *Triad) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, b, c, alpha := k.a, k.b, k.c, k.alpha
	body := func(i int) { a[i] = b[i] + alpha*c[i] }
	span := func(lo, hi int) { raja.TriadSpan(a, b, c, alpha, lo, hi) }
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		if err := kernels.RunVariant(v, rp, k.n, span, body); err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(a))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Triad) TearDown() { k.a, k.b, k.c = nil, nil, nil }
