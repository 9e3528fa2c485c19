package algorithms

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Scan implements Algorithm_SCAN: an exclusive prefix sum. The paper uses
// it as the canonical bandwidth-limited kernel whose memory-bound metric
// collapses when moving from DDR to HBM (Sec III-A).
type Scan struct {
	kernels.KernelBase
	x, y []float64
	n    int
}

func init() { kernels.Register(NewScan) }

// NewScan constructs the SCAN kernel. Table I gives it no Lambda variants.
func NewScan() kernels.Kernel {
	return &Scan{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "SCAN",
		Group:       kernels.Algorithms,
		Features:    []kernels.Feature{kernels.FeatScan},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.NoLambdaVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Scan) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	k.y = rp.Alloc(k.n)
	kernels.InitData(k.x, 1.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		// The three-phase parallel scan re-reads the output.
		BytesRead:    16 * n,
		BytesWritten: 8 * n,
		Flops:        2 * n,
	})
	mix := memMix(2, 2, 1, 2, k.n)
	mix.ILP = 2
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *Scan) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y, n := k.x, k.y, k.n
	reps := rp.EffectiveReps(k.Info())
	switch v {
	case kernels.BaseSeq:
		for r := 0; r < reps; r++ {
			acc := 0.0
			for i := 0; i < n; i++ {
				y[i] = acc
				acc += x[i]
			}
		}
	case kernels.BaseOpenMP, kernels.BaseGPU:
		pol := rp.Policy(v)
		for r := 0; r < reps; r++ {
			raja.ExclusiveScanSum(pol, y, x)
		}
	case kernels.RAJASeq, kernels.RAJAOpenMP, kernels.RAJAGPU:
		pol := rp.Policy(v)
		// Fused scan: three span dispatches with specialized load and
		// store bodies.
		for r := 0; r < reps; r++ {
			raja.ForallExclusiveScan[float64](pol, n, scanStore{x: x, y: y})
		}
	default:
		return k.Unsupported(v)
	}
	k.SetChecksum(kernels.ChecksumSlice(y))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Scan) TearDown() { k.x, k.y = nil, nil }
