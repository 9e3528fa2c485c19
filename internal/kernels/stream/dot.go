package stream

import "rajaperf/internal/kernels"

// Dot implements Stream_DOT: dot += a[i] * b[i], the group's reduction
// kernel.
type Dot struct {
	kernels.KernelBase
	a, b []float64
	n    int
}

func init() { kernels.Register(NewDot) }

// NewDot constructs the DOT kernel.
func NewDot() kernels.Kernel {
	return &Dot{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "DOT",
		Group:       kernels.Stream,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    allVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Dot) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.a = rp.Alloc(k.n)
	k.b = rp.Alloc(k.n)
	kernels.InitData(k.a, 1.0)
	kernels.InitData(k.b, 2.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    16 * n,
		BytesWritten: 0,
		Flops:        2 * n,
	})
	mix := streamMix(2, 2, 0, k.n)
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *Dot) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, b := k.a, k.b
	body := dotReduce{a: a, b: b}
	lambda := func(dot float64, i int) float64 { return dot + a[i]*b[i] }
	var dot float64
	var err error
	for r := 0; r < rp.EffectiveReps(k.Info()) && err == nil; r++ {
		dot, err = kernels.RunReduce(v, rp, k.n, body, lambda)
	}
	if err != nil {
		return k.Unsupported(v)
	}
	k.SetChecksum(dot)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Dot) TearDown() { k.a, k.b = nil, nil }
