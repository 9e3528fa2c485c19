package polybench

import "rajaperf/internal/kernels"

// adiSteps is the number of ADI time steps per rep.
const adiSteps = 2

// Adi implements Polybench_ADI: alternating-direction-implicit integration.
// Each time step performs a column sweep and a row sweep; each sweep runs a
// forward recurrence and backward substitution along one dimension while
// parallelizing over the other, exactly the structure that keeps ADI
// memory-latency bound (the paper lists it among the kernels with no GPU
// speedup).
type Adi struct {
	kernels.KernelBase
	u, v, p, q []float64
	n          int // grid edge
}

func init() { kernels.Register(NewAdi) }

// NewAdi constructs the ADI kernel.
func NewAdi() kernels.Kernel {
	return &Adi{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "ADI",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: 2,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Adi) SetUp(rp kernels.RunParams) {
	k.n = edge2D(rp.EffectiveSize(k.Info()), 4)
	d := k.n
	k.u = rp.Alloc(d * d)
	k.v = rp.Alloc(d * d)
	k.p = rp.Alloc(d * d)
	k.q = rp.Alloc(d * d)
	kernels.InitData(k.u, 1.0)
	nd := float64(d * d)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 8 * nd * adiSteps,
		BytesWritten: 8 * 6 * nd * adiSteps,
		Flops:        30 * nd * adiSteps,
	})
	k.SetMix(kernels.Mix{
		Flops: 30, Loads: 8, Stores: 6,
		Pattern: kernels.AccessStrided, Reuse: 0.3,
		ILP:             1.5, // recurrences serialize the sweeps
		WorkingSetBytes: 32 * nd,
		FootprintKB:     2.0,
		LaunchesPerRep:  2 * adiSteps,
		ParallelWork:    float64(k.n), // line-parallel sweeps
	})
}

// adi constants (PolyBench's DX/DY/DT-derived coefficients).
const (
	adiA = 0.5
	adiB = 1.2
	adiC = 0.5
	adiD = 0.7
	adiE = 1.4
	adiF = 0.7
)

// Run implements kernels.Kernel. The outer parallel loop is over the
// non-swept dimension.
func (k *Adi) Run(v kernels.VariantID, rp kernels.RunParams) error {
	u, vv, p, q, d := k.u, k.v, k.p, k.q, k.n
	colSweep := func(i int) {
		vv[0*d+i] = 1.0
		p[i*d+0] = 0.0
		q[i*d+0] = vv[0*d+i]
		for j := 1; j < d-1; j++ {
			p[i*d+j] = -adiC / (adiA*p[i*d+j-1] + adiB)
			q[i*d+j] = (-adiD*u[j*d+i-1] + (1.0+2.0*adiD)*u[j*d+i] -
				adiF*u[j*d+i+1] - adiA*q[i*d+j-1]) /
				(adiA*p[i*d+j-1] + adiB)
		}
		vv[(d-1)*d+i] = 1.0
		for j := d - 2; j >= 1; j-- {
			vv[j*d+i] = p[i*d+j]*vv[(j+1)*d+i] + q[i*d+j]
		}
	}
	rowSweep := func(i int) {
		u[i*d+0] = 1.0
		p[i*d+0] = 0.0
		q[i*d+0] = u[i*d+0]
		for j := 1; j < d-1; j++ {
			p[i*d+j] = -adiF / (adiD*p[i*d+j-1] + adiE)
			q[i*d+j] = (-adiA*vv[(i-1)*d+j] + (1.0+2.0*adiA)*vv[i*d+j] -
				adiC*vv[(i+1)*d+j] - adiD*q[i*d+j-1]) /
				(adiD*p[i*d+j-1] + adiE)
		}
		u[i*d+d-1] = 1.0
		for j := d - 2; j >= 1; j-- {
			u[i*d+j] = p[i*d+j]*u[i*d+j+1] + q[i*d+j]
		}
	}
	m := d - 2 // interior lines, mapped to index i+1
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		for t := 0; t < adiSteps; t++ {
			for _, sweep := range []func(int){colSweep, rowSweep} {
				sweep := sweep
				err := kernels.RunVariant(v, rp, m,
					func(lo, hi int) {
						for i := lo; i < hi; i++ {
							sweep(i + 1)
						}
					},
					func(i int) { sweep(i + 1) })
				if err != nil {
					return k.Unsupported(v)
				}
			}
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(u))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Adi) TearDown() { k.u, k.v, k.p, k.q = nil, nil, nil, nil }
