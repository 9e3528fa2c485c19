package polybench

import "rajaperf/internal/kernels"

// FloydWarshall implements Polybench_FLOYD_WARSHALL: all-pairs shortest
// paths. Each of the N sequential k-steps relaxes the full path matrix in
// parallel, ping-ponging between input and output matrices as the suite
// does; on GPUs this means one kernel launch per k-step.
type FloydWarshall struct {
	kernels.KernelBase
	pin, pout []float64
	n         int // vertex count (matrix edge)
}

func init() { kernels.Register(NewFloydWarshall) }

// NewFloydWarshall constructs the FLOYD_WARSHALL kernel.
func NewFloydWarshall() kernels.Kernel {
	return &FloydWarshall{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "FLOYD_WARSHALL",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN32,
		DefaultSize: 40_000,
		DefaultReps: 2,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *FloydWarshall) SetUp(rp kernels.RunParams) {
	k.n = edge2D(rp.EffectiveSize(k.Info()), 2)
	d := k.n
	k.pin = rp.Alloc(d * d)
	k.pout = rp.Alloc(d * d)
	// Deterministic pseudo-random edge weights.
	kernels.InitDataRand(k.pin, 31337)
	for i := range k.pin {
		k.pin[i] = k.pin[i]*9 + 1
	}
	for i := 0; i < d && len(k.pin) > 0; i++ {
		k.pin[i*d+i] = 0
	}
	nd := float64(d)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 2 * nd * nd * nd,
		BytesWritten: 8 * nd * nd * nd,
		Flops:        nd * nd * nd, // one add (+ compare) per relaxation
	})
	k.SetMix(kernels.Mix{
		Flops: 1, Loads: 3, Stores: 1, Branches: 1, BrMissRate: 0.3,
		Pattern: kernels.AccessUnit, Reuse: 0.5,
		ILP:             3,
		WorkingSetBytes: 16 * nd * nd,
		FootprintKB:     0.6,
		LaunchesPerRep:  nd, // one launch per k-step on GPUs
	})
}

// Run implements kernels.Kernel.
func (k *FloydWarshall) Run(v kernels.VariantID, rp kernels.RunParams) error {
	d := k.n
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		src := k.pin
		dst := k.pout
		// Work on a copy so every rep computes the same result.
		work := make([]float64, len(src))
		copy(work, src)
		src = work
		for kk := 0; kk < d; kk++ {
			kk := kk
			srcL, dstL := src, dst
			row := func(i int) {
				ik := srcL[i*d+kk]
				for j := 0; j < d; j++ {
					cur := srcL[i*d+j]
					via := ik + srcL[kk*d+j]
					if via < cur {
						cur = via
					}
					dstL[i*d+j] = cur
				}
			}
			err := kernels.RunVariant(v, rp, d,
				func(lo, hi int) {
					for i := lo; i < hi; i++ {
						row(i)
					}
				},
				row)
			if err != nil {
				return k.Unsupported(v)
			}
			src, dst = dst, src
		}
		k.SetChecksum(kernels.ChecksumSlice(src))
	}
	return nil
}

// TearDown implements kernels.Kernel.
func (k *FloydWarshall) TearDown() { k.pin, k.pout = nil, nil }
