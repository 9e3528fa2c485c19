package basic

import (
	"math"

	"rajaperf/internal/kernels"
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
	x, y := k.x, k.y
	body := reduceStructBody{x: x, y: y}
	lambda := func(acc reduceStructAcc, i int) reduceStructAcc {
		acc.fold(x[i], y[i])
		return acc
	}
	var acc reduceStructAcc
	var err error
	for r := 0; r < rp.EffectiveReps(k.Info()) && err == nil; r++ {
		acc, err = kernels.RunReduce(v, rp, k.n, body, lambda)
	}
	if err != nil {
		return k.Unsupported(v)
	}
	nn := float64(k.n)
	k.SetChecksum(acc.xsum/nn + acc.ysum/nn + acc.xmin + acc.xmax + acc.ymin + acc.ymax)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *ReduceStruct) TearDown() { k.x, k.y = nil, nil }
