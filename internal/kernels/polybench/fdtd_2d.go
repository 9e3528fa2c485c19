package polybench

import "rajaperf/internal/kernels"

// fdtdSteps is the number of time steps per rep.
const fdtdSteps = 4

// Fdtd2D implements Polybench_FDTD_2D: the 2-D finite-difference
// time-domain kernel updating the ex/ey electric fields and hz magnetic
// field over a grid, four sub-loops per time step.
type Fdtd2D struct {
	kernels.KernelBase
	ex, ey, hz []float64
	fict       []float64
	n          int // grid edge
}

func init() { kernels.Register(NewFdtd2D) }

// NewFdtd2D constructs the FDTD_2D kernel.
func NewFdtd2D() kernels.Kernel {
	return &Fdtd2D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "FDTD_2D",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Fdtd2D) SetUp(rp kernels.RunParams) {
	k.n = edge2D(rp.EffectiveSize(k.Info()), 3)
	d := k.n
	k.ex = rp.Alloc(d * d)
	k.ey = rp.Alloc(d * d)
	k.hz = rp.Alloc(d * d)
	k.fict = rp.Alloc(fdtdSteps)
	kernels.InitData(k.ex, 1.0)
	kernels.InitData(k.ey, 2.0)
	kernels.InitData(k.hz, 3.0)
	kernels.InitData(k.fict, 1.0)
	nd := float64(d * d)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 6 * nd * fdtdSteps,
		BytesWritten: 8 * 3 * nd * fdtdSteps,
		Flops:        11 * nd * fdtdSteps,
	})
	mix := stencilMix(11, 6, 24*nd)
	mix.Stores = 3
	k.SetMix(mix)
}

// Run implements kernels.Kernel. Each time step runs four row-parallel
// sub-loops, as in the suite's nested-policy implementation.
func (k *Fdtd2D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	ex, ey, hz, fict, d := k.ex, k.ey, k.hz, k.fict, k.n
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		for t := 0; t < fdtdSteps; t++ {
			t := t
			// Sub-loop 1: boundary row of ey.
			l1 := func(j int) { ey[j] = fict[t] }
			// Sub-loop 2: ey interior (rows 1..d-1).
			l2 := func(ri int) {
				i := ri + 1
				for j := 0; j < d; j++ {
					ey[i*d+j] -= 0.5 * (hz[i*d+j] - hz[(i-1)*d+j])
				}
			}
			// Sub-loop 3: ex (columns 1..d-1).
			l3 := func(i int) {
				for j := 1; j < d; j++ {
					ex[i*d+j] -= 0.5 * (hz[i*d+j] - hz[i*d+j-1])
				}
			}
			// Sub-loop 4: hz interior.
			l4 := func(i int) {
				for j := 0; j < d-1; j++ {
					hz[i*d+j] -= 0.7 * (ex[i*d+j+1] - ex[i*d+j] +
						ey[(i+1)*d+j] - ey[i*d+j])
				}
			}
			type sub struct {
				n    int
				body func(int)
			}
			for _, s := range []sub{{d, l1}, {d - 1, l2}, {d, l3}, {d - 1, l4}} {
				s := s
				err := kernels.RunVariant(v, rp, s.n,
					func(lo, hi int) {
						for i := lo; i < hi; i++ {
							s.body(i)
						}
					},
					s.body)
				if err != nil {
					return k.Unsupported(v)
				}
			}
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(ex) + kernels.ChecksumSlice(ey) +
		kernels.ChecksumSlice(hz))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Fdtd2D) TearDown() { k.ex, k.ey, k.hz, k.fict = nil, nil, nil, nil }
