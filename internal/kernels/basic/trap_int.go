package basic

import "rajaperf/internal/kernels"

// TrapInt implements Basic_TRAP_INT: trapezoidal integration of a rational
// function — a pure-compute reduction with no array traffic.
type TrapInt struct {
	kernels.KernelBase
	x0, xp, y, yp, h float64
	n                int
}

func init() { kernels.Register(NewTrapInt) }

// NewTrapInt constructs the TRAP_INT kernel.
func NewTrapInt() kernels.Kernel {
	return &TrapInt{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "TRAP_INT",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *TrapInt) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x0, k.xp = 0.1, 0.7
	k.y, k.yp = 0.3, 0.95
	k.h = (k.xp - k.x0) / float64(k.n)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    0,
		BytesWritten: 0,
		Flops:        10 * n,
	})
	k.SetMix(kernels.Mix{
		Flops: 10, IntOps: 1,
		Pattern: kernels.AccessUnit, ILP: 2,
		WorkingSetBytes: 64,
		FootprintKB:     0.5,
		Reuse:           1,
	})
}

// trapFunc is the suite's integrand.
func trapFunc(x, y, xp, yp float64) float64 {
	denom := (x-xp)*(x-xp) + (y-yp)*(y-yp)
	return 0.0419 / denom
}

// Run implements kernels.Kernel.
func (k *TrapInt) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x0, xp, y, yp, h := k.x0, k.xp, k.y, k.yp, k.h
	body := trapReduce{x0: x0, xp: xp, y: y, yp: yp, h: h}
	lambda := func(sumx float64, i int) float64 {
		x := x0 + float64(i)*h
		return sumx + trapFunc(x, y, xp, yp)
	}
	var sumx float64
	var err error
	for r := 0; r < rp.EffectiveReps(k.Info()) && err == nil; r++ {
		sumx, err = kernels.RunReduce(v, rp, k.n, body, lambda)
	}
	if err != nil {
		return k.Unsupported(v)
	}
	k.SetChecksum(sumx * h)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *TrapInt) TearDown() {}
