package lcals

import "rajaperf/internal/kernels"

// FirstDiff implements Lcals_FIRST_DIFF: x[i] = y[i+1] - y[i].
type FirstDiff struct {
	kernels.KernelBase
	x, y []float64
	n    int
}

func init() { kernels.Register(NewFirstDiff) }

// NewFirstDiff constructs the FIRST_DIFF kernel.
func NewFirstDiff() kernels.Kernel {
	return &FirstDiff{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "FIRST_DIFF",
		Group:       kernels.Lcals,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *FirstDiff) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	k.y = rp.Alloc(k.n + 1)
	kernels.InitData(k.y, 1.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n, // y[i+1] hits the line loaded for y[i]
		BytesWritten: 8 * n,
		Flops:        1 * n,
	})
	k.SetMix(unitMix(1, 2, 1, 4, 2, k.n))
}

// Run implements kernels.Kernel.
func (k *FirstDiff) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y := k.x, k.y
	body := func(i int) { x[i] = y[i+1] - y[i] }
	span := func(lo, hi int) {
		x := x[lo:hi]
		y0 := y[lo:hi][:len(x)]
		y1 := y[lo+1 : hi+1][:len(x)]
		for i := range x {
			x[i] = y1[i] - y0[i]
		}
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		if err := kernels.RunVariant(v, rp, k.n, span, body); err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(x))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *FirstDiff) TearDown() { k.x, k.y = nil, nil }
