package kernels

import "rajaperf/internal/raja"

// RunVariant executes one pass over [0, n) in the style of variant v,
// from the kernel's one loop body `body`, which processes the half-open
// span [lo, hi), and its per-index closure `lambda`:
//
//   - Base variants run body directly: the whole range for Base_Seq,
//     per-worker chunks for Base_OpenMP, dynamic blocks for Base_GPU;
//   - Lambda variants invoke lambda once per index, exercising
//     closure-call overhead the way the suite's C++ Lambda variants
//     exercise std::function-free lambda dispatch;
//   - RAJA variants run the same body through raja.ForallSpan under the
//     policy implied by v and rp, one call per scheduling granule.
//
// Base and RAJA share the body, as the C++ suite expands one KERNEL_BODY
// macro into both, so the Base-vs-RAJA gap is the portability layer's
// dispatch cost alone. The hand-written skeletons (Pool.StaticChunks,
// Pool.DynamicBlocks) and the RAJA policies run on the run's pool
// (rp.ExecPool()) through raja's one dispatch core, spawn fallback
// included, so all reps of a run reuse one set of parked workers.
//
// Kernels whose body is a plain elementwise loop build their Run method
// from one RunVariant call per rep; kernels with reductions, scans, or
// communication write their own dispatch, on rp.ExecPool() as well
// (kerneltest checks that every parallel variant records granules on the
// run's pool).
func RunVariant(v VariantID, rp RunParams, n int, body func(lo, hi int), lambda func(i int)) error {
	switch v {
	case BaseSeq:
		body(0, n)
	case LambdaSeq:
		for i := 0; i < n; i++ {
			lambda(i)
		}
	case BaseOpenMP:
		rp.ExecPool().StaticChunks(rp.Workers, n, func(_, lo, hi int) { body(lo, hi) })
	case LambdaOpenMP:
		rp.ExecPool().StaticChunks(rp.Workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				lambda(i)
			}
		})
	case BaseGPU:
		rp.ExecPool().DynamicBlocks(rp.Workers, rp.GPUBlock, n, body)
	case RAJASeq, RAJAOpenMP, RAJAGPU:
		raja.ForallSpan(rp.Policy(v), n, body)
	default:
		return &ErrVariantUnsupported{Variant: v}
	}
	return nil
}

// SeqVariants is the sequential-only variant set used by kernels with
// loop-carried structure that the paper only runs sequentially.
var SeqVariants = []VariantID{BaseSeq, LambdaSeq, RAJASeq}

// AllVariants is the full eight-variant set.
var AllVariants = []VariantID{
	BaseSeq, LambdaSeq, RAJASeq,
	BaseOpenMP, LambdaOpenMP, RAJAOpenMP,
	BaseGPU, RAJAGPU,
}

// NoLambdaVariants is the variant set for kernels whose Table I row lacks
// Lambda variants (feature kernels like sorts and scans).
var NoLambdaVariants = []VariantID{
	BaseSeq, RAJASeq, BaseOpenMP, RAJAOpenMP, BaseGPU, RAJAGPU,
}

// CPUOnlyVariants is for kernels the paper does not run on GPUs.
var CPUOnlyVariants = []VariantID{
	BaseSeq, LambdaSeq, RAJASeq, BaseOpenMP, LambdaOpenMP, RAJAOpenMP,
}
