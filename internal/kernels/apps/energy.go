package apps

import (
	"math"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Energy implements Apps_ENERGY: the multi-loop hydrodynamics energy
// update with data-dependent branches on compression state, from LLNL
// shock-hydro codes.
type Energy struct {
	kernels.KernelBase
	eNew, eOld, delvc, pNew, pOld  []float64
	qNew, qOld, work, qqOld, qlOld []float64
	rho0, eCut, emin               float64
	n                              int
}

func init() { kernels.Register(NewEnergy) }

// NewEnergy constructs the ENERGY kernel.
func NewEnergy() kernels.Kernel {
	return &Energy{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "ENERGY",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Energy) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	for _, p := range []*[]float64{
		&k.eNew, &k.eOld, &k.delvc, &k.pNew, &k.pOld,
		&k.qNew, &k.qOld, &k.work, &k.qqOld, &k.qlOld,
	} {
		*p = rp.Alloc(k.n)
	}
	kernels.InitData(k.eOld, 1.0)
	kernels.InitDataSigned(k.delvc, 1.0)
	kernels.InitData(k.pOld, 2.0)
	kernels.InitData(k.qOld, 3.0)
	kernels.InitData(k.work, 4.0)
	kernels.InitData(k.qqOld, 5.0)
	kernels.InitData(k.qlOld, 6.0)
	kernels.InitData(k.pNew, 7.0)
	k.rho0, k.eCut, k.emin = 1.0, 1e-7, -1e15
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 10 * n,
		BytesWritten: 8 * 3 * n,
		Flops:        15 * n,
	})
	k.SetMix(kernels.Mix{
		Flops: 15, Loads: 10, Stores: 3, Branches: 4, BrMissRate: 0.12,
		Pattern: kernels.AccessUnit, ILP: 3,
		WorkingSetBytes: 80 * float64(k.n),
		FootprintKB:     4.0,
		Divergence:      0.4,
	})
}

// Run implements kernels.Kernel. The suite's six ENERGY sub-loops are
// rendered here as four, preserving the branch structure.
func (k *Energy) Run(v kernels.VariantID, rp kernels.RunParams) error {
	eNew, eOld, delvc, pNew, pOld := k.eNew, k.eOld, k.delvc, k.pNew, k.pOld
	qNew, qOld, work, qqOld, qlOld := k.qNew, k.qOld, k.work, k.qqOld, k.qlOld
	rho0, eCut, emin := k.rho0, k.eCut, k.emin
	loops := []func(int){
		func(i int) {
			eNew[i] = eOld[i] - 0.5*delvc[i]*(pOld[i]+qOld[i]) + 0.5*work[i]
		},
		func(i int) {
			if delvc[i] > 0 {
				qNew[i] = 0
			} else {
				ssc := (0.3*eNew[i] + 0.7*pOld[i]) / rho0
				if ssc <= 0.1111e-36 {
					ssc = 0.3333e-18
				} else {
					ssc = math.Sqrt(ssc)
				}
				qNew[i] = ssc*qlOld[i] + qqOld[i]
			}
		},
		func(i int) {
			eNew[i] += 0.5 * delvc[i] *
				(3.0*(pOld[i]+qOld[i]) - 4.0*(pNew[i]+qNew[i]))
		},
		func(i int) {
			eNew[i] += 0.5 * work[i]
			if math.Abs(eNew[i]) < eCut {
				eNew[i] = 0
			}
			if eNew[i] < emin {
				eNew[i] = emin
			}
		},
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		for _, loop := range loops {
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
	k.SetChecksum(kernels.ChecksumSlice(eNew) + kernels.ChecksumSlice(qNew))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Energy) TearDown() {
	k.eNew, k.eOld, k.delvc, k.pNew, k.pOld = nil, nil, nil, nil, nil
	k.qNew, k.qOld, k.work, k.qqOld, k.qlOld = nil, nil, nil, nil, nil
}
