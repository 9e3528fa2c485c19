package basic

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// IndexList3Loop implements Basic_INDEXLIST_3LOOP: the same stream
// compaction as INDEXLIST written explicitly as three loops (flag, scan,
// scatter) in every variant, exposing the scan as a first-class phase.
type IndexList3Loop struct {
	kernels.KernelBase
	x           []float64
	counts, pos []int64
	list        []int64
	len         int64
	n           int
}

func init() { kernels.Register(NewIndexList3Loop) }

// NewIndexList3Loop constructs the INDEXLIST_3LOOP kernel.
func NewIndexList3Loop() kernels.Kernel {
	return &IndexList3Loop{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "INDEXLIST_3LOOP",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatScan},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.NoLambdaVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *IndexList3Loop) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	k.counts = rp.AllocI64(k.n)
	k.pos = rp.AllocI64(k.n)
	k.list = rp.AllocI64(k.n)
	kernels.InitDataSigned(k.x, 1.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    24 * n, // x, counts, pos across the three loops
		BytesWritten: 20 * n,
		Flops:        0,
	})
	mix := unitMix(0, 3, 2.5, 2, 4, k.n)
	mix.Branches = 1
	mix.BrMissRate = 0.08
	mix.IntOps = 3
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *IndexList3Loop) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, counts, pos, list, n := k.x, k.counts, k.pos, k.list, k.n
	reps := rp.EffectiveReps(k.Info())
	if !k.Info().HasVariant(v) {
		return k.Unsupported(v)
	}
	pol := rp.Policy(v)
	for r := 0; r < reps; r++ {
		// Loop 1: flag.
		err := kernels.RunVariant(v, rp, n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if x[i] < 0 {
						counts[i] = 1
					} else {
						counts[i] = 0
					}
				}
			},
			nil,
			func(_ raja.Ctx, i int) {
				if x[i] < 0 {
					counts[i] = 1
				} else {
					counts[i] = 0
				}
			})
		if err != nil {
			return k.Unsupported(v)
		}
		// Loop 2: exclusive scan.
		raja.ExclusiveScanSum(pol, pos, counts)
		// Loop 3: scatter.
		err = kernels.RunVariant(v, rp, n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if counts[i] == 1 {
						list[pos[i]] = int64(i)
					}
				}
			},
			nil,
			func(_ raja.Ctx, i int) {
				if counts[i] == 1 {
					list[pos[i]] = int64(i)
				}
			})
		if err != nil {
			return k.Unsupported(v)
		}
		k.len = 0
		if n > 0 {
			k.len = pos[n-1] + counts[n-1]
		}
	}
	k.SetChecksum(kernels.ChecksumInts(list[:k.len]) + float64(k.len))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *IndexList3Loop) TearDown() {
	k.x, k.counts, k.pos, k.list = nil, nil, nil, nil
}
