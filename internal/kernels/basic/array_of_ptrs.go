package basic

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// aopMaxPtrs is the fixed pointer-array capacity, as in the suite.
const aopMaxPtrs = 8

// ArrayOfPtrs implements Basic_ARRAY_OF_PTRS: sum across an array of
// pointers captured by value in the loop body, a pattern that challenges
// compiler alias analysis and GPU argument marshalling.
type ArrayOfPtrs struct {
	kernels.KernelBase
	ptrs [aopMaxPtrs][]float64
	y    []float64
	n    int
}

func init() { kernels.Register(NewArrayOfPtrs) }

// NewArrayOfPtrs constructs the ARRAY_OF_PTRS kernel.
func NewArrayOfPtrs() kernels.Kernel {
	return &ArrayOfPtrs{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "ARRAY_OF_PTRS",
		Group:       kernels.Basic,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *ArrayOfPtrs) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info())
	for j := 0; j < aopMaxPtrs; j++ {
		k.ptrs[j] = rp.Alloc(k.n)
		kernels.InitData(k.ptrs[j], float64(j+1))
	}
	k.y = rp.Alloc(k.n)
	n := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * aopMaxPtrs * n,
		BytesWritten: 8 * n,
		Flops:        aopMaxPtrs * n,
	})
	mix := unitMix(aopMaxPtrs, aopMaxPtrs, 1, 3, aopMaxPtrs+1, k.n)
	mix.IntOps = aopMaxPtrs // pointer-table indirection
	mix.FootprintKB = 1.0
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *ArrayOfPtrs) Run(v kernels.VariantID, rp kernels.RunParams) error {
	// The pointer array is captured by value, as the suite passes its
	// struct into the lambda.
	ptrs := k.ptrs
	y := k.y
	body := func(i int) {
		sum := 0.0
		for j := 0; j < aopMaxPtrs; j++ {
			sum += ptrs[j][i]
		}
		y[i] = sum
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, k.n,
			func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sum := 0.0
					for j := 0; j < aopMaxPtrs; j++ {
						sum += ptrs[j][i]
					}
					y[i] = sum
				}
			},
			body,
			func(_ raja.Ctx, i int) { body(i) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(y))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *ArrayOfPtrs) TearDown() {
	for j := range k.ptrs {
		k.ptrs[j] = nil
	}
	k.y = nil
}
