package basic

import "rajaperf/internal/kernels"

// PiReduce implements Basic_PI_REDUCE: the same quadrature as PI_ATOMIC
// expressed as a sum reduction, its scalable counterpart.
type PiReduce struct {
	kernels.KernelBase
	dx float64
	n  int
}

func init() { kernels.Register(NewPiReduce) }

// NewPiReduce constructs the PI_REDUCE kernel.
func NewPiReduce() kernels.Kernel {
	return &PiReduce{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "PI_REDUCE",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *PiReduce) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.dx = 1.0 / float64(k.n)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    0,
		BytesWritten: 0,
		Flops:        6 * n,
	})
	k.SetMix(kernels.Mix{
		Flops: 6, IntOps: 1,
		Pattern: kernels.AccessUnit, ILP: 2,
		WorkingSetBytes: 64,
		FootprintKB:     0.4,
		Reuse:           1,
	})
}

// Run implements kernels.Kernel.
func (k *PiReduce) Run(v kernels.VariantID, rp kernels.RunParams) error {
	dx := k.dx
	body := piReduce{dx: dx}
	lambda := func(pi float64, i int) float64 {
		x := (float64(i) + 0.5) * dx
		return pi + dx/(1.0+x*x)
	}
	var pi float64
	var err error
	for r := 0; r < rp.EffectiveReps(k.Info()) && err == nil; r++ {
		pi, err = kernels.RunReduce(v, rp, k.n, body, lambda)
	}
	if err != nil {
		return k.Unsupported(v)
	}
	k.SetChecksum(pi * 4.0)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *PiReduce) TearDown() {}
