package lcals

import "rajaperf/internal/kernels"

// FirstSum implements Lcals_FIRST_SUM: x[i] = y[i-1] + y[i] for i >= 1.
type FirstSum struct {
	kernels.KernelBase
	x, y []float64
	n    int
}

func init() { kernels.Register(NewFirstSum) }

// NewFirstSum constructs the FIRST_SUM kernel.
func NewFirstSum() kernels.Kernel {
	return &FirstSum{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "FIRST_SUM",
		Group:       kernels.Lcals,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *FirstSum) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	k.y = rp.Alloc(k.n)
	kernels.InitData(k.y, 1.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 8 * n,
		Flops:        1 * n,
	})
	k.SetMix(unitMix(1, 2, 1, 4, 2, k.n))
}

// Run implements kernels.Kernel. The iteration space is [1, n); element 0
// keeps its initial value.
func (k *FirstSum) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y := k.x, k.y
	body := func(i int) { x[i] = y[i-1] + y[i] }
	m := k.n - 1 // iterations, mapped to index i+1
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, m,
			func(lo, hi int) {
				for i := lo + 1; i < hi+1; i++ {
					x[i] = y[i-1] + y[i]
				}
			},
			func(i int) { body(i + 1) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(x))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *FirstSum) TearDown() { k.x, k.y = nil, nil }
