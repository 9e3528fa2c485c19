package lcals

import (
	"math"
	"sync"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// FirstMin implements Lcals_FIRST_MIN: find the minimum value and its
// first location (a min-loc reduction). The paper notes it splits between
// retiring and frontend bound and gains on GPUs despite not being memory
// bound (Sec V-B).
type FirstMin struct {
	kernels.KernelBase
	x []float64
	n int
}

func init() { kernels.Register(NewFirstMin) }

// NewFirstMin constructs the FIRST_MIN kernel.
func NewFirstMin() kernels.Kernel {
	return &FirstMin{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "FIRST_MIN",
		Group:       kernels.Lcals,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *FirstMin) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	kernels.InitData(k.x, 1.0)
	if len(k.x) > 0 {
		k.x[k.n/2] = -1e10
	}
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 0,
		Flops:        0,
	})
	mix := unitMix(0, 1, 0, 2, 1, k.n)
	mix.Branches = 1
	mix.BrMissRate = 0.02 // the running-min branch is almost never taken
	mix.FootprintKB = 0.6
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *FirstMin) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, n := k.x, k.n
	reps := rp.EffectiveReps(k.Info())
	var minVal float64
	var minLoc int
	switch v {
	case kernels.BaseSeq, kernels.LambdaSeq:
		for r := 0; r < reps; r++ {
			minVal, minLoc = math.Inf(1), -1
			fold := func(i int) {
				if x[i] < minVal {
					minVal, minLoc = x[i], i
				}
			}
			if v == kernels.LambdaSeq {
				for i := 0; i < n; i++ {
					fold(i)
				}
			} else {
				for i := 0; i < n; i++ {
					if x[i] < minVal {
						minVal, minLoc = x[i], i
					}
				}
			}
		}
	case kernels.BaseOpenMP, kernels.LambdaOpenMP, kernels.BaseGPU:
		for r := 0; r < reps; r++ {
			minVal, minLoc = math.Inf(1), -1
			var mu sync.Mutex
			run := func(lo, hi int) {
				lv, ll := math.Inf(1), -1
				for i := lo; i < hi; i++ {
					if x[i] < lv {
						lv, ll = x[i], i
					}
				}
				mu.Lock()
				if lv < minVal || (lv == minVal && ll < minLoc) {
					minVal, minLoc = lv, ll
				}
				mu.Unlock()
			}
			if v == kernels.BaseGPU {
				rp.ExecPool().DynamicBlocks(rp.Workers, rp.GPUBlock, n, run)
			} else {
				rp.ExecPool().StaticChunks(rp.Workers, n, func(_, lo, hi int) { run(lo, hi) })
			}
		}
	case kernels.RAJASeq, kernels.RAJAOpenMP, kernels.RAJAGPU:
		pol := rp.Policy(v)
		// Fused min-loc: the lexicographic (val, loc) combine is exact
		// under any chunk order.
		for r := 0; r < reps; r++ {
			acc := raja.ForallReduce[minLocAcc](pol, n, firstMinBody{x: x})
			minVal, minLoc = acc.Val, acc.Loc
		}
	default:
		return k.Unsupported(v)
	}
	k.SetChecksum(minVal + float64(minLoc))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *FirstMin) TearDown() { k.x = nil }
