package polybench

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Atax implements Polybench_ATAX: y = A^T * (A * x). The second phase
// accumulates down columns, the access pattern that keeps this kernel
// memory bound (the paper lists it among kernels with no GPU speedup,
// Sec V-B/V-C).
type Atax struct {
	kernels.KernelBase
	a, x, y, tmp []float64
	n            int
}

func init() { kernels.Register(NewAtax) }

// NewAtax constructs the ATAX kernel.
func NewAtax() kernels.Kernel {
	return &Atax{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "ATAX",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Atax) SetUp(rp kernels.RunParams) {
	k.n = edge2D(rp.EffectiveSize(k.Info()), 1)
	d := k.n
	k.a = rp.Alloc(d * d)
	k.x = rp.Alloc(d)
	k.y = rp.Alloc(d)
	k.tmp = rp.Alloc(d)
	kernels.InitData(k.a, 1.0)
	kernels.InitData(k.x, 2.0)
	nd := float64(d)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 2 * nd * nd,
		BytesWritten: 8 * 2 * nd,
		Flops:        4 * nd * nd,
	})
	mix := matvecMix(8*nd*nd, true)
	mix.ParallelWork = nd // row-parallel phases
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *Atax) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, x, y, tmp, d := k.a, k.x, k.y, k.tmp, k.n
	rowPhase := func(i int) {
		s := 0.0
		for j := 0; j < d; j++ {
			s += a[i*d+j] * x[j]
		}
		tmp[i] = s
	}
	colPhase := func(j int) {
		s := 0.0
		for i := 0; i < d; i++ {
			s += a[i*d+j] * tmp[i]
		}
		y[j] = s
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		for _, phase := range []func(int){rowPhase, colPhase} {
			phase := phase
			err := kernels.RunVariant(v, rp, d,
				func(lo, hi int) {
					for i := lo; i < hi; i++ {
						phase(i)
					}
				},
				phase,
				func(_ raja.Ctx, i int) { phase(i) })
			if err != nil {
				return k.Unsupported(v)
			}
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(y))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Atax) TearDown() { k.a, k.x, k.y, k.tmp = nil, nil, nil, nil }
