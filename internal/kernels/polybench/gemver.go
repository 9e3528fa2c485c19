package polybench

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Gemver implements Polybench_GEMVER: a rank-2 update of A followed by two
// dependent matrix-vector products.
type Gemver struct {
	kernels.KernelBase
	a, u1, v1, u2, v2, w, x, y, z []float64
	alpha, beta                   float64
	n                             int
}

func init() { kernels.Register(NewGemver) }

// NewGemver constructs the GEMVER kernel.
func NewGemver() kernels.Kernel {
	return &Gemver{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "GEMVER",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Gemver) SetUp(rp kernels.RunParams) {
	k.n = edge2D(rp.EffectiveSize(k.Info()), 1)
	d := k.n
	k.a = rp.Alloc(d * d)
	for _, p := range []*[]float64{&k.u1, &k.v1, &k.u2, &k.v2, &k.w, &k.x, &k.y, &k.z} {
		*p = rp.Alloc(d)
	}
	kernels.InitData(k.a, 1.0)
	kernels.InitData(k.u1, 2.0)
	kernels.InitData(k.v1, 3.0)
	kernels.InitData(k.u2, 4.0)
	kernels.InitData(k.v2, 5.0)
	kernels.InitData(k.y, 6.0)
	kernels.InitData(k.z, 7.0)
	k.alpha, k.beta = 1.5, 1.2
	nd := float64(d)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 3 * nd * nd,
		BytesWritten: 8 * (nd*nd + 2*nd),
		Flops:        8 * nd * nd,
	})
	mix := matvecMix(8*nd*nd, true)
	mix.ParallelWork = nd // row-parallel phases
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *Gemver) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, d := k.a, k.n
	u1, v1, u2, v2 := k.u1, k.v1, k.u2, k.v2
	w, x, y, z := k.w, k.x, k.y, k.z
	alpha, beta := k.alpha, k.beta
	update := func(i int) {
		for j := 0; j < d; j++ {
			a[i*d+j] += u1[i]*v1[j] + u2[i]*v2[j]
		}
	}
	xPhase := func(i int) {
		s := 0.0
		for j := 0; j < d; j++ {
			s += beta * a[j*d+i] * y[j]
		}
		x[i] = s + z[i]
	}
	wPhase := func(i int) {
		s := 0.0
		for j := 0; j < d; j++ {
			s += alpha * a[i*d+j] * x[j]
		}
		w[i] = s
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		for _, phase := range []func(int){update, xPhase, wPhase} {
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
	k.SetChecksum(kernels.ChecksumSlice(w))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Gemver) TearDown() {
	k.a, k.u1, k.v1, k.u2, k.v2 = nil, nil, nil, nil, nil
	k.w, k.x, k.y, k.z = nil, nil, nil, nil
}
