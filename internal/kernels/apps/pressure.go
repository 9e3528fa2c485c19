package apps

import (
	"math"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Pressure implements Apps_PRESSURE: the two-loop equation-of-state
// pressure update with cutoff branches, from LLNL hydrodynamics codes.
type Pressure struct {
	kernels.KernelBase
	compression, bvc, pNew, eOld, vnewc []float64
	cls, pCut, pmin, eosvmax            float64
	n                                   int
}

func init() { kernels.Register(NewPressure) }

// NewPressure constructs the PRESSURE kernel.
func NewPressure() kernels.Kernel {
	return &Pressure{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "PRESSURE",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Pressure) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	for _, p := range []*[]float64{&k.compression, &k.bvc, &k.pNew, &k.eOld, &k.vnewc} {
		*p = rp.Alloc(k.n)
	}
	kernels.InitDataSigned(k.compression, 1.0)
	kernels.InitData(k.eOld, 2.0)
	kernels.InitData(k.vnewc, 1.0)
	k.cls = 2.0 / 3.0
	k.pCut = 1e-7
	k.pmin = 1e-12
	k.eosvmax = 0.095
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    24 * n,
		BytesWritten: 16 * n,
		Flops:        3 * n,
	})
	mix := kernels.Mix{
		Flops: 3, Loads: 3, Stores: 2, Branches: 3, BrMissRate: 0.12,
		Pattern: kernels.AccessUnit, ILP: 3,
		WorkingSetBytes: 40 * float64(k.n),
		FootprintKB:     1.5,
		Divergence:      0.3,
	}
	k.SetMix(mix)
}

// Run implements kernels.Kernel. The two loops run back to back per rep,
// as in the suite.
func (k *Pressure) Run(v kernels.VariantID, rp kernels.RunParams) error {
	compression, bvc, pNew, eOld, vnewc := k.compression, k.bvc, k.pNew, k.eOld, k.vnewc
	cls, pCut, pmin, eosvmax := k.cls, k.pCut, k.pmin, k.eosvmax
	loop1 := func(i int) { bvc[i] = cls * (compression[i] + 1.0) }
	loop2 := func(i int) {
		pNew[i] = bvc[i] * eOld[i]
		if math.Abs(pNew[i]) < pCut {
			pNew[i] = 0
		}
		if vnewc[i] >= eosvmax {
			pNew[i] = 0
		}
		if pNew[i] < pmin {
			pNew[i] = pmin
		}
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		for _, loop := range []func(int){loop1, loop2} {
			loop := loop
			err := kernels.RunVariant(v, rp, k.n,
				func(lo, hi int) {
					for i := lo; i < hi; i++ {
						loop(i)
					}
				},
				loop,
				func(_ raja.Ctx, i int) { loop(i) })
			if err != nil {
				return k.Unsupported(v)
			}
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(pNew))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Pressure) TearDown() {
	k.compression, k.bvc, k.pNew, k.eOld, k.vnewc = nil, nil, nil, nil, nil
}
