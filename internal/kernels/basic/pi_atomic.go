package basic

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// PiAtomic implements Basic_PI_ATOMIC: quadrature for pi with every
// iteration atomically accumulating into a single location — the suite's
// contended-atomic hotspot. The paper singles it out as a kernel that
// speeds up on no accelerator (Sec V-B/V-C).
type PiAtomic struct {
	kernels.KernelBase
	pi *float64
	dx float64
	n  int
}

func init() { kernels.Register(NewPiAtomic) }

// NewPiAtomic constructs the PI_ATOMIC kernel.
func NewPiAtomic() kernels.Kernel {
	return &PiAtomic{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "PI_ATOMIC",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatAtomic},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *PiAtomic) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.dx = 1.0 / float64(k.n)
	k.pi = new(float64)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n, // the atomic RMW rereads the accumulator
		BytesWritten: 8 * n,
		Flops:        6 * n,
	})
	k.SetMix(kernels.Mix{
		Flops: 6, IntOps: 1, Atomics: 1,
		Pattern: kernels.AccessUnit, ILP: 1,
		WorkingSetBytes: 8, // single hot address
		FootprintKB:     0.4,
		Reuse:           1,
	})
}

// Run implements kernels.Kernel.
func (k *PiAtomic) Run(v kernels.VariantID, rp kernels.RunParams) error {
	dx := k.dx
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		*k.pi = 0
		pi := k.pi
		body := func(i int) {
			x := (float64(i) + 0.5) * dx
			raja.AtomicAddFloat64(pi, dx/(1.0+x*x))
		}
		err := kernels.RunVariant(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					x := (float64(i) + 0.5) * dx
					raja.AtomicAddFloat64(pi, dx/(1.0+x*x))
				}
			},
			body)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(*k.pi * 4.0)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *PiAtomic) TearDown() { k.pi = nil }
