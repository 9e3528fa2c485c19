package basic

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Copy8 implements Basic_COPY8: eight independent array copies in one loop
// body, stressing load/store ports and register pressure.
type Copy8 struct {
	kernels.KernelBase
	src [8][]float64
	dst [8][]float64
	n   int
}

func init() { kernels.Register(NewCopy8) }

// NewCopy8 constructs the COPY8 kernel.
func NewCopy8() kernels.Kernel {
	return &Copy8{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "COPY8",
		Group:       kernels.Basic,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Copy8) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	for j := 0; j < 8; j++ {
		k.src[j] = rp.Alloc(k.n)
		k.dst[j] = rp.Alloc(k.n)
		kernels.InitData(k.src[j], float64(j+1))
	}
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    64 * n,
		BytesWritten: 64 * n,
		Flops:        0,
	})
	mix := unitMix(0, 8, 8, 6, 16, k.n)
	mix.FootprintKB = 0.8
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *Copy8) Run(v kernels.VariantID, rp kernels.RunParams) error {
	s0, s1, s2, s3 := k.src[0], k.src[1], k.src[2], k.src[3]
	s4, s5, s6, s7 := k.src[4], k.src[5], k.src[6], k.src[7]
	d0, d1, d2, d3 := k.dst[0], k.dst[1], k.dst[2], k.dst[3]
	d4, d5, d6, d7 := k.dst[4], k.dst[5], k.dst[6], k.dst[7]
	body := func(i int) {
		d0[i] = s0[i]
		d1[i] = s1[i]
		d2[i] = s2[i]
		d3[i] = s3[i]
		d4[i] = s4[i]
		d5[i] = s5[i]
		d6[i] = s6[i]
		d7[i] = s7[i]
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					d0[i] = s0[i]
					d1[i] = s1[i]
					d2[i] = s2[i]
					d3[i] = s3[i]
					d4[i] = s4[i]
					d5[i] = s5[i]
					d6[i] = s6[i]
					d7[i] = s7[i]
				}
			},
			body,
			func(_ raja.Ctx, i int) { body(i) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	sum := 0.0
	for j := 0; j < 8; j++ {
		sum += kernels.ChecksumSlice(k.dst[j])
	}
	k.SetChecksum(sum)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Copy8) TearDown() {
	for j := range k.src {
		k.src[j], k.dst[j] = nil, nil
	}
}
