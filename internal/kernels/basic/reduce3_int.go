package basic

import "rajaperf/internal/kernels"

// Reduce3Int implements Basic_REDUCE3_INT: simultaneous sum, min, and max
// reductions over an integer vector.
type Reduce3Int struct {
	kernels.KernelBase
	vec []int64
	n   int
}

func init() { kernels.Register(NewReduce3Int) }

// NewReduce3Int constructs the REDUCE3_INT kernel.
func NewReduce3Int() kernels.Kernel {
	return &Reduce3Int{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "REDUCE3_INT",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Reduce3Int) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.vec = rp.AllocI64(k.n)
	kernels.InitIntsRand(k.vec, 12345, 1000)
	if len(k.vec) > 0 {
		k.vec[k.n/3] = -57
		k.vec[2*k.n/3] = 2001
	}
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 0,
		Flops:        0,
	})
	mix := unitMix(0, 1, 0, 3, 1, k.n)
	mix.IntOps = 3
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *Reduce3Int) Run(v kernels.VariantID, rp kernels.RunParams) error {
	vec := k.vec
	body := reduce3Body{vec: vec}
	lambda := func(acc reduce3Acc, i int) reduce3Acc {
		x := vec[i]
		acc.Sum += x
		if x < acc.Min {
			acc.Min = x
		}
		if x > acc.Max {
			acc.Max = x
		}
		return acc
	}
	var acc reduce3Acc
	var err error
	for r := 0; r < rp.EffectiveReps(k.Info()) && err == nil; r++ {
		acc, err = kernels.RunReduce(v, rp, k.n, body, lambda)
	}
	if err != nil {
		return k.Unsupported(v)
	}
	k.SetChecksum(float64(acc.Sum) + float64(acc.Min) + float64(acc.Max))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Reduce3Int) TearDown() { k.vec = nil }
