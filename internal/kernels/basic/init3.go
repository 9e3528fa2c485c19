package basic

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Init3 implements Basic_INIT3: out1[i] = out2[i] = out3[i] = -in1[i] - in2[i].
type Init3 struct {
	kernels.KernelBase
	out1, out2, out3, in1, in2 []float64
	n                          int
}

func init() { kernels.Register(NewInit3) }

// NewInit3 constructs the INIT3 kernel.
func NewInit3() kernels.Kernel {
	return &Init3{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "INIT3",
		Group:       kernels.Basic,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
		Mono:        true,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Init3) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.out1 = rp.Alloc(k.n)
	k.out2 = rp.Alloc(k.n)
	k.out3 = rp.Alloc(k.n)
	k.in1 = rp.Alloc(k.n)
	k.in2 = rp.Alloc(k.n)
	kernels.InitData(k.in1, 1.0)
	kernels.InitData(k.in2, 2.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    16 * n,
		BytesWritten: 24 * n,
		Flops:        2 * n,
	})
	k.SetMix(unitMix(2, 2, 3, 4, 5, k.n))
}

// Run implements kernels.Kernel.
func (k *Init3) Run(v kernels.VariantID, rp kernels.RunParams) error {
	o1, o2, o3, i1, i2 := k.out1, k.out2, k.out3, k.in1, k.in2
	body := func(i int) {
		val := -i1[i] - i2[i]
		o1[i], o2[i], o3[i] = val, val, val
	}
	span := init3Span{o1: o1, o2: o2, o3: o3, i1: i1, i2: i2}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariantG(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					val := -i1[i] - i2[i]
					o1[i], o2[i], o3[i] = val, val, val
				}
			},
			body,
			func(_ raja.Ctx, i int) { body(i) },
			span)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(o1) + kernels.ChecksumSlice(o2) + kernels.ChecksumSlice(o3))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Init3) TearDown() {
	k.out1, k.out2, k.out3, k.in1, k.in2 = nil, nil, nil, nil, nil
}
