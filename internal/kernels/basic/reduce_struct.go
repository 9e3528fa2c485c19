package basic

import (
	"math"
	"sync"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// ReduceStruct implements Basic_REDUCE_STRUCT: six simultaneous reductions
// (sum, min, max of two coordinate arrays) yielding the centroid and
// bounds of a point set.
type ReduceStruct struct {
	kernels.KernelBase
	x, y []float64
	n    int
}

func init() { kernels.Register(NewReduceStruct) }

// NewReduceStruct constructs the REDUCE_STRUCT kernel.
func NewReduceStruct() kernels.Kernel {
	return &ReduceStruct{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "REDUCE_STRUCT",
		Group:       kernels.Basic,
		Features:    []kernels.Feature{kernels.FeatReduction},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *ReduceStruct) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	k.x = rp.Alloc(k.n)
	k.y = rp.Alloc(k.n)
	kernels.InitDataSigned(k.x, 1.0)
	kernels.InitDataSigned(k.y, 2.0)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    16 * n,
		BytesWritten: 0,
		Flops:        2 * n,
	})
	mix := unitMix(2, 2, 0, 3, 2, k.n)
	k.SetMix(mix)
}

type reduceStructAcc struct {
	xsum, ysum             float64
	xmin, ymin, xmax, ymax float64
}

func newReduceStructAcc() reduceStructAcc {
	return reduceStructAcc{
		xmin: math.Inf(1), ymin: math.Inf(1),
		xmax: math.Inf(-1), ymax: math.Inf(-1),
	}
}

func (a *reduceStructAcc) fold(x, y float64) {
	a.xsum += x
	a.ysum += y
	if x < a.xmin {
		a.xmin = x
	}
	if x > a.xmax {
		a.xmax = x
	}
	if y < a.ymin {
		a.ymin = y
	}
	if y > a.ymax {
		a.ymax = y
	}
}

func (a *reduceStructAcc) merge(b reduceStructAcc) {
	a.xsum += b.xsum
	a.ysum += b.ysum
	a.xmin = math.Min(a.xmin, b.xmin)
	a.xmax = math.Max(a.xmax, b.xmax)
	a.ymin = math.Min(a.ymin, b.ymin)
	a.ymax = math.Max(a.ymax, b.ymax)
}

// Run implements kernels.Kernel.
func (k *ReduceStruct) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y, n := k.x, k.y, k.n
	reps := rp.EffectiveReps(k.Info())
	var acc reduceStructAcc
	switch v {
	case kernels.BaseSeq, kernels.LambdaSeq:
		for r := 0; r < reps; r++ {
			acc = newReduceStructAcc()
			if v == kernels.LambdaSeq {
				body := func(i int) { acc.fold(x[i], y[i]) }
				for i := 0; i < n; i++ {
					body(i)
				}
			} else {
				for i := 0; i < n; i++ {
					acc.fold(x[i], y[i])
				}
			}
		}
	case kernels.BaseOpenMP, kernels.LambdaOpenMP, kernels.BaseGPU:
		for r := 0; r < reps; r++ {
			acc = newReduceStructAcc()
			var mu sync.Mutex
			run := func(lo, hi int) {
				local := newReduceStructAcc()
				for i := lo; i < hi; i++ {
					local.fold(x[i], y[i])
				}
				mu.Lock()
				acc.merge(local)
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
		for r := 0; r < reps; r++ {
			xsum := raja.NewReduceSum(pol, 0.0)
			ysum := raja.NewReduceSum(pol, 0.0)
			xmin := raja.NewReduceMin(pol, math.Inf(1))
			ymin := raja.NewReduceMin(pol, math.Inf(1))
			xmax := raja.NewReduceMax(pol, math.Inf(-1))
			ymax := raja.NewReduceMax(pol, math.Inf(-1))
			raja.Forall(pol, n, func(c raja.Ctx, i int) {
				xsum.Add(c, x[i])
				ysum.Add(c, y[i])
				xmin.Min(c, x[i])
				ymin.Min(c, y[i])
				xmax.Max(c, x[i])
				ymax.Max(c, y[i])
			})
			acc = reduceStructAcc{
				xsum: xsum.Get(), ysum: ysum.Get(),
				xmin: xmin.Get(), ymin: ymin.Get(),
				xmax: xmax.Get(), ymax: ymax.Get(),
			}
		}
	default:
		return k.Unsupported(v)
	}
	nn := float64(n)
	k.SetChecksum(acc.xsum/nn + acc.ysum/nn + acc.xmin + acc.xmax + acc.ymin + acc.ymax)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *ReduceStruct) TearDown() { k.x, k.y = nil, nil }
