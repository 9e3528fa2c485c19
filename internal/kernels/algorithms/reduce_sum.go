package algorithms

import "rajaperf/internal/kernels"

// ReduceSum implements Algorithm_REDUCE_SUM: a plain sum reduction over a
// data array. The paper calls it out as a kernel whose bottleneck is not
// memory bandwidth on either SPR system (Sec III-A).
type ReduceSum struct {
	kernels.KernelBase
	x []float64
	n int
}

func init() { kernels.Register(NewReduceSum) }

// NewReduceSum constructs the REDUCE_SUM kernel.
func NewReduceSum() kernels.Kernel {
	return &ReduceSum{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "REDUCE_SUM",
		Group:       kernels.Algorithms,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *ReduceSum) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	kernels.InitData(k.x, 1.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 0,
		Flops:        1 * n,
	})
	mix := memMix(1, 1, 0, 1, k.n)
	// Strict FP forbids reassociating the accumulator: the add-latency
	// chain serializes the loop, which is why the paper finds this
	// kernel NOT memory bound on either SPR system (Sec III-A).
	mix.Scalar = true
	mix.ILP = 0.3
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *ReduceSum) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x := k.x
	body := sumReduce{x: x}
	lambda := func(sum float64, i int) float64 { return sum + x[i] }
	var sum float64
	var err error
	for r := 0; r < rp.EffectiveReps(k.Info()) && err == nil; r++ {
		sum, err = kernels.RunReduce(v, rp, k.n, body, lambda)
	}
	if err != nil {
		return k.Unsupported(v)
	}
	k.SetChecksum(sum)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *ReduceSum) TearDown() { k.x = nil }
