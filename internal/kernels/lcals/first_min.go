package lcals

import "rajaperf/internal/kernels"

// FirstMin implements Lcals_FIRST_MIN: find the minimum value and its
// first location (a min-loc reduction). The paper notes it splits between
// retiring and frontend bound and gains on GPUs despite not being memory
// bound (Sec V-B).
type FirstMin struct {
	kernels.KernelBase
	x []float64
	n int
}

func init() { kernels.Register(NewFirstMin) }

// NewFirstMin constructs the FIRST_MIN kernel.
func NewFirstMin() kernels.Kernel {
	return &FirstMin{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "FIRST_MIN",
		Group:       kernels.Lcals,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *FirstMin) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	kernels.InitData(k.x, 1.0)
	if len(k.x) > 0 {
		k.x[k.n/2] = -1e10
	}
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 0,
		Flops:        0,
	})
	mix := unitMix(0, 1, 0, 2, 1, k.n)
	mix.Branches = 1
	mix.BrMissRate = 0.02 // the running-min branch is almost never taken
	mix.FootprintKB = 0.6
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *FirstMin) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x := k.x
	body := firstMinBody{x: x}
	lambda := func(acc minLocAcc, i int) minLocAcc {
		if x[i] < acc.Val {
			acc.Val, acc.Loc = x[i], i
		}
		return acc
	}
	var acc minLocAcc
	var err error
	for r := 0; r < rp.EffectiveReps(k.Info()) && err == nil; r++ {
		acc, err = kernels.RunReduce(v, rp, k.n, body, lambda)
	}
	if err != nil {
		return k.Unsupported(v)
	}
	k.SetChecksum(acc.Val + float64(acc.Loc))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *FirstMin) TearDown() { k.x = nil }
