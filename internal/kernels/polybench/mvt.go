package polybench

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Mvt implements Polybench_MVT: x1 += A*y1 and x2 += A^T*y2, a pair of
// matrix-vector products with row and column access.
type Mvt struct {
	kernels.KernelBase
	a, x1, x2, y1, y2 []float64
	n                 int
}

func init() { kernels.Register(NewMvt) }

// NewMvt constructs the MVT kernel.
func NewMvt() kernels.Kernel {
	return &Mvt{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "MVT",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Mvt) SetUp(rp kernels.RunParams) {
	k.n = edge2D(rp.EffectiveSize(k.Info()), 1)
	d := k.n
	k.a = rp.Alloc(d * d)
	k.x1 = rp.Alloc(d)
	k.x2 = rp.Alloc(d)
	k.y1 = rp.Alloc(d)
	k.y2 = rp.Alloc(d)
	kernels.InitData(k.a, 1.0)
	kernels.InitData(k.y1, 2.0)
	kernels.InitData(k.y2, 3.0)
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
func (k *Mvt) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, x1, x2, y1, y2, d := k.a, k.x1, k.x2, k.y1, k.y2, k.n
	phase1 := func(i int) {
		s := x1[i]
		for j := 0; j < d; j++ {
			s += a[i*d+j] * y1[j]
		}
		x1[i] = s
	}
	phase2 := func(i int) {
		s := x2[i]
		for j := 0; j < d; j++ {
			s += a[j*d+i] * y2[j]
		}
		x2[i] = s
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		for _, phase := range []func(int){phase1, phase2} {
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
	k.SetChecksum(kernels.ChecksumSlice(x1) + kernels.ChecksumSlice(x2))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Mvt) TearDown() { k.a, k.x1, k.x2, k.y1, k.y2 = nil, nil, nil, nil, nil }
