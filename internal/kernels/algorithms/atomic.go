package algorithms

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// atomicReplication is the number of accumulator slots the ATOMIC kernel
// spreads its updates over (the suite's default replication tuning), which
// trades contention against cache footprint.
const atomicReplication = 64

// Atomic implements Algorithm_ATOMIC: every iteration performs an atomic
// add into a small replicated accumulator array.
type Atomic struct {
	kernels.KernelBase
	acc []float64
	n   int
}

func init() { kernels.Register(NewAtomic) }

// NewAtomic constructs the ATOMIC kernel.
func NewAtomic() kernels.Kernel {
	return &Atomic{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "ATOMIC",
		Group:       kernels.Algorithms,
		Features:    []kernels.Feature{kernels.FeatAtomic},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.NoLambdaVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Atomic) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.acc = rp.Alloc(atomicReplication * 8) // pad slots to separate lines
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 8 * n,
		Flops:        1 * n,
	})
	k.SetMix(kernels.Mix{
		Flops: 1, IntOps: 2, Atomics: 1,
		Pattern: kernels.AccessUnit, ILP: 1,
		WorkingSetBytes: atomicReplication * 64,
		FootprintKB:     0.3,
		Reuse:           1,
	})
}

// Run implements kernels.Kernel.
func (k *Atomic) Run(v kernels.VariantID, rp kernels.RunParams) error {
	if !k.Info().HasVariant(v) {
		return k.Unsupported(v)
	}
	acc, n := k.acc, k.n
	for i := range acc {
		acc[i] = 0
	}
	body := func(i int) {
		raja.AtomicAddFloat64(&acc[(i%atomicReplication)*8], 1.0)
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					raja.AtomicAddFloat64(&acc[(i%atomicReplication)*8], 1.0)
				}
			},
			body,
			func(_ raja.Ctx, i int) { body(i) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(acc))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Atomic) TearDown() { k.acc = nil }
