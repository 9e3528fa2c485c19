package basic

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// IndexList implements Basic_INDEXLIST: build the list of indices whose
// element is negative, in index order — a stream-compaction pattern built
// on an exclusive scan in its parallel variants.
type IndexList struct {
	kernels.KernelBase
	x    []float64
	list []int64
	len  int64
	n    int
}

func init() { kernels.Register(NewIndexList) }

// NewIndexList constructs the INDEXLIST kernel. Table I gives it no Lambda
// variants.
func NewIndexList() kernels.Kernel {
	return &IndexList{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "INDEXLIST",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatScan},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.NoLambdaVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *IndexList) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	k.list = rp.AllocI64(k.n)
	kernels.InitDataSigned(k.x, 1.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * n,
		BytesWritten: 4 * n, // roughly half the indices are stored
		Flops:        0,
	})
	mix := unitMix(0, 1, 0.5, 2, 2, k.n)
	mix.Branches = 1
	mix.BrMissRate = 0.08
	mix.IntOps = 2
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *IndexList) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, list, n := k.x, k.list, k.n
	reps := rp.EffectiveReps(k.Info())
	switch v {
	case kernels.BaseSeq:
		for r := 0; r < reps; r++ {
			cnt := int64(0)
			for i := 0; i < n; i++ {
				if x[i] < 0 {
					list[cnt] = int64(i)
					cnt++
				}
			}
			k.len = cnt
		}
	case kernels.RAJASeq, kernels.RAJAOpenMP, kernels.RAJAGPU,
		kernels.BaseOpenMP, kernels.BaseGPU:
		// Parallel variants use flag + exclusive scan + scatter so the
		// output order matches the sequential reference.
		pol := rp.Policy(v)
		flags := make([]int64, n)
		pos := make([]int64, n)
		for r := 0; r < reps; r++ {
			raja.Forall(pol, n, func(_ raja.Ctx, i int) {
				if x[i] < 0 {
					flags[i] = 1
				} else {
					flags[i] = 0
				}
			})
			raja.ExclusiveScanSum(pol, pos, flags)
			raja.Forall(pol, n, func(_ raja.Ctx, i int) {
				if flags[i] == 1 {
					list[pos[i]] = int64(i)
				}
			})
			k.len = 0
			if n > 0 {
				k.len = pos[n-1] + flags[n-1]
			}
		}
	default:
		return k.Unsupported(v)
	}
	k.SetChecksum(kernels.ChecksumInts(list[:k.len]) + float64(k.len))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *IndexList) TearDown() { k.x, k.list = nil, nil }
