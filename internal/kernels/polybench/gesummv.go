package polybench

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Gesummv implements Polybench_GESUMMV: y = alpha*A*x + beta*B*x, two
// matrices streamed per output element. The paper highlights its large
// memory-bound metric on DDR and its relief on HBM (Sec III-A).
type Gesummv struct {
	kernels.KernelBase
	a, b, x, y  []float64
	alpha, beta float64
	n           int
}

func init() { kernels.Register(NewGesummv) }

// NewGesummv constructs the GESUMMV kernel.
func NewGesummv() kernels.Kernel {
	return &Gesummv{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "GESUMMV",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Gesummv) SetUp(rp kernels.RunParams) {
	k.n = edge2D(rp.EffectiveSize(k.Info()), 2)
	d := k.n
	k.a = rp.Alloc(d * d)
	k.b = rp.Alloc(d * d)
	k.x = rp.Alloc(d)
	k.y = rp.Alloc(d)
	kernels.InitData(k.a, 1.0)
	kernels.InitData(k.b, 2.0)
	kernels.InitData(k.x, 3.0)
	k.alpha, k.beta = 1.5, 1.2
	nd := float64(d)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 2 * nd * nd,
		BytesWritten: 8 * nd,
		Flops:        4*nd*nd + 3*nd,
	})
	mix := matvecMix(16*nd*nd, false)
	mix.Loads = 3
	mix.Flops = 4
	mix.ParallelWork = nd // row-parallel
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *Gesummv) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, b, x, y, d := k.a, k.b, k.x, k.y, k.n
	alpha, beta := k.alpha, k.beta
	row := func(i int) {
		sa, sb := 0.0, 0.0
		for j := 0; j < d; j++ {
			sa += a[i*d+j] * x[j]
			sb += b[i*d+j] * x[j]
		}
		y[i] = alpha*sa + beta*sb
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, d,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					row(i)
				}
			},
			row,
			func(_ raja.Ctx, i int) { row(i) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(y))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Gesummv) TearDown() { k.a, k.b, k.x, k.y = nil, nil, nil, nil }
