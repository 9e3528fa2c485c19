package basic

import (
	"math"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// IfQuad implements Basic_IF_QUAD: solve a*x^2 + b*x + c = 0 per element,
// branching on the sign of the discriminant — the group's
// branch-divergence kernel.
type IfQuad struct {
	kernels.KernelBase
	a, b, c, x1, x2 []float64
	n               int
}

func init() { kernels.Register(NewIfQuad) }

// NewIfQuad constructs the IF_QUAD kernel.
func NewIfQuad() kernels.Kernel {
	return &IfQuad{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "IF_QUAD",
		Group:       kernels.Basic,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
		Mono:        true,
	})}
}

// SetUp implements kernels.Kernel.
func (k *IfQuad) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.a = rp.Alloc(k.n)
	k.b = rp.Alloc(k.n)
	k.c = rp.Alloc(k.n)
	k.x1 = rp.Alloc(k.n)
	k.x2 = rp.Alloc(k.n)
	kernels.InitData(k.a, 1.0)
	kernels.InitDataConst(k.b, 3.0)
	// Alternate the sign of c so roughly half the elements take each
	// branch, producing real divergence.
	kernels.InitDataSigned(k.c, 2.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    24 * n,
		BytesWritten: 16 * n,
		Flops:        11 * n,
	})
	mix := unitMix(11, 3, 2, 2, 5, k.n)
	mix.Branches = 1
	mix.BrMissRate = 0.08 // alternating branch is predictable
	mix.Divergence = 0.5
	mix.FootprintKB = 1.2
	k.SetMix(mix)
}

func quadBody(a, b, c, x1, x2 []float64) func(int) {
	return func(i int) {
		s := b[i]*b[i] - 4*a[i]*c[i]
		if s >= 0 {
			s = math.Sqrt(s)
			den := 0.5 / a[i]
			x2[i] = (-b[i] + s) * den
			x1[i] = (-b[i] - s) * den
		} else {
			x2[i] = 0
			x1[i] = 0
		}
	}
}

// Run implements kernels.Kernel.
func (k *IfQuad) Run(v kernels.VariantID, rp kernels.RunParams) error {
	body := quadBody(k.a, k.b, k.c, k.x1, k.x2)
	span := ifQuadSpan{a: k.a, b: k.b, c: k.c, x1: k.x1, x2: k.x2}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariantG(v, rp, k.n,
			func(lo, hi int) {
				a, b, c, x1, x2 := k.a, k.b, k.c, k.x1, k.x2
				for i := lo; i < hi; i++ {
					s := b[i]*b[i] - 4*a[i]*c[i]
					if s >= 0 {
						s = math.Sqrt(s)
						den := 0.5 / a[i]
						x2[i] = (-b[i] + s) * den
						x1[i] = (-b[i] - s) * den
					} else {
						x2[i] = 0
						x1[i] = 0
					}
				}
			},
			body,
			func(_ raja.Ctx, i int) { body(i) },
			span)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(k.x1) + kernels.ChecksumSlice(k.x2))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *IfQuad) TearDown() {
	k.a, k.b, k.c, k.x1, k.x2 = nil, nil, nil, nil, nil
}
