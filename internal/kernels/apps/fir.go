package apps

import "rajaperf/internal/kernels"

// firLen is the filter length, as in the suite.
const firLen = 16

// Fir implements Apps_FIR: a 16-tap finite-impulse-response filter.
type Fir struct {
	kernels.KernelBase
	in, out []float64
	coeff   [firLen]float64
	n       int
}

func init() { kernels.Register(NewFir) }

// NewFir constructs the FIR kernel.
func NewFir() kernels.Kernel {
	return &Fir{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "FIR",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Fir) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.in = rp.Alloc(k.n + firLen)
	k.out = rp.Alloc(k.n)
	kernels.InitData(k.in, 1.0)
	for j := range k.coeff {
		k.coeff[j] = 0.5 - 0.07*float64(j)
	}
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n, // taps hit cache lines already streamed
		BytesWritten: 8 * n,
		Flops:        2 * firLen * n,
	})
	k.SetMix(kernels.Mix{
		Flops: 2 * firLen, Loads: firLen, Stores: 1,
		Pattern: kernels.AccessUnit, Reuse: 0.9,
		ILP:             4,
		WorkingSetBytes: 16 * float64(k.n),
		FootprintKB:     0.8,
	})
}

// Run implements kernels.Kernel.
func (k *Fir) Run(v kernels.VariantID, rp kernels.RunParams) error {
	in, out, coeff := k.in, k.out, k.coeff
	body := func(i int) {
		sum := 0.0
		for j := 0; j < firLen; j++ {
			sum += coeff[j] * in[i+j]
		}
		out[i] = sum
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sum := 0.0
					for j := 0; j < firLen; j++ {
						sum += coeff[j] * in[i+j]
					}
					out[i] = sum
				}
			},
			body)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(out))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Fir) TearDown() { k.in, k.out = nil, nil }
