package basic

import "rajaperf/internal/kernels"

// MulAddSub implements Basic_MULADDSUB: three outputs computed from two
// inputs per element (product, sum, difference).
type MulAddSub struct {
	kernels.KernelBase
	out1, out2, out3, in1, in2 []float64
	n                          int
}

func init() { kernels.Register(NewMulAddSub) }

// NewMulAddSub constructs the MULADDSUB kernel.
func NewMulAddSub() kernels.Kernel {
	return &MulAddSub{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "MULADDSUB",
		Group:       kernels.Basic,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *MulAddSub) SetUp(rp kernels.RunParams) {
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
		Flops:        3 * n,
	})
	k.SetMix(unitMix(3, 2, 3, 4, 5, k.n))
}

// Run implements kernels.Kernel.
func (k *MulAddSub) Run(v kernels.VariantID, rp kernels.RunParams) error {
	o1, o2, o3, i1, i2 := k.out1, k.out2, k.out3, k.in1, k.in2
	body := func(i int) {
		o1[i] = i1[i] * i2[i]
		o2[i] = i1[i] + i2[i]
		o3[i] = i1[i] - i2[i]
	}
	span := func(lo, hi int) {
		o1 := o1[lo:hi]
		o2 := o2[lo:hi][:len(o1)]
		o3 := o3[lo:hi][:len(o1)]
		i1 := i1[lo:hi][:len(o1)]
		i2 := i2[lo:hi][:len(o1)]
		for i := range o1 {
			o1[i] = i1[i] * i2[i]
			o2[i] = i1[i] + i2[i]
			o3[i] = i1[i] - i2[i]
		}
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		if err := kernels.RunVariant(v, rp, k.n, span, body); err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(o1) + kernels.ChecksumSlice(o2) + kernels.ChecksumSlice(o3))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *MulAddSub) TearDown() {
	k.out1, k.out2, k.out3, k.in1, k.in2 = nil, nil, nil, nil, nil
}
