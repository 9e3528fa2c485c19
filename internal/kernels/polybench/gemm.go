package polybench

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Gemm implements Polybench_GEMM: C = alpha*A*B + beta*C.
type Gemm struct {
	kernels.KernelBase
	a, b, c     []float64
	alpha, beta float64
	n           int // matrix edge
}

func init() { kernels.Register(NewGemm) }

// NewGemm constructs the GEMM kernel.
func NewGemm() kernels.Kernel {
	return &Gemm{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "GEMM",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN32,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Gemm) SetUp(rp kernels.RunParams) {
	k.n = edge2D(rp.EffectiveSize(k.Info()), 3)
	d := k.n
	k.a = rp.Alloc(d * d)
	k.b = rp.Alloc(d * d)
	k.c = rp.Alloc(d * d)
	kernels.InitData(k.a, 1.0)
	kernels.InitData(k.b, 2.0)
	kernels.InitDataConst(k.c, 0.25)
	k.alpha, k.beta = 1.5, 1.2
	nd := float64(d)
	k.SetMetrics(kernels.AnalyticMetrics{
		// Footprint accounting: blocked reuse means each matrix
		// streams through the memory system once per rep.
		BytesRead:    8 * 3 * nd * nd,
		BytesWritten: 8 * nd * nd,
		Flops:        2*nd*nd*nd + 2*nd*nd,
	})
	k.SetMix(matMix(3 * 8 * nd * nd))
}

// Run implements kernels.Kernel. The parallel dimension is the output row.
func (k *Gemm) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, b, c, d := k.a, k.b, k.c, k.n
	alpha, beta := k.alpha, k.beta
	row := func(i int) {
		for j := 0; j < d; j++ {
			c[i*d+j] *= beta
		}
		for l := 0; l < d; l++ {
			av := alpha * a[i*d+l]
			for j := 0; j < d; j++ {
				c[i*d+j] += av * b[l*d+j]
			}
		}
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
	k.SetChecksum(kernels.ChecksumSlice(c))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Gemm) TearDown() { k.a, k.b, k.c = nil, nil, nil }
