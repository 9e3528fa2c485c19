package kernels

import "rajaperf/internal/raja"

// RunVariant executes one pass over [0, n) in the style of variant v:
//
//   - Base variants run the hand-written chunk loop `base` directly (whole
//     range for Base_Seq, per-worker chunks for Base_OpenMP, dynamic blocks
//     for Base_GPU);
//   - Lambda variants invoke the per-index closure `lambda`, exercising
//     closure-call overhead the way the suite's C++ Lambda variants
//     exercise std::function-free lambda dispatch;
//   - RAJA variants dispatch `rajaBody` through the portability layer
//     under the policy implied by v and rp.
//
// The hand-written skeletons (Pool.StaticChunks, Pool.DynamicBlocks) and
// the RAJA policies run on the run's pool (rp.ExecPool()) through raja's
// one dispatch core, spawn fallback included, so all reps of a run reuse
// one set of parked workers and the Base-vs-RAJA gap isolates
// abstraction overhead rather than goroutine-creation noise or a
// different placement.
//
// Kernels whose body is a plain elementwise loop build their Run method
// from one RunVariant call per rep; kernels with reductions, scans, or
// communication write their own dispatch, on rp.ExecPool() as well
// (kerneltest checks that every parallel variant records granules on the
// run's pool).
func RunVariant(v VariantID, rp RunParams, n int,
	base func(lo, hi int), lambda func(i int), rajaBody raja.Body) error {
	switch v {
	case BaseSeq:
		base(0, n)
	case LambdaSeq:
		for i := 0; i < n; i++ {
			lambda(i)
		}
	case BaseOpenMP:
		rp.ExecPool().StaticChunks(rp.Workers, n, func(_, lo, hi int) { base(lo, hi) })
	case LambdaOpenMP:
		rp.ExecPool().StaticChunks(rp.Workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				lambda(i)
			}
		})
	case BaseGPU:
		rp.ExecPool().DynamicBlocks(rp.Workers, rp.GPUBlock, n, base)
	case RAJASeq, RAJAOpenMP, RAJAGPU:
		raja.Forall(rp.Policy(v), n, rajaBody)
	default:
		return &ErrVariantUnsupported{Variant: v}
	}
	return nil
}

// RunVariantG is the monomorphized counterpart of RunVariant for kernels
// rewired to the generic API. Base and Lambda variants behave exactly as
// RunVariant; RAJA variants dispatch the span body through
// raja.ForallSpanG — each (policy, schedule, body-type) combination
// compiles to its own specialized loop — unless rp.Dispatch is
// DispatchClosure, which forces the classic per-index closure path so
// conformance tests and the portability study can compare the two.
func RunVariantG[B raja.SpanBody](v VariantID, rp RunParams, n int,
	base func(lo, hi int), lambda func(i int), closure raja.Body, body B) error {
	switch v {
	case RAJASeq, RAJAOpenMP, RAJAGPU:
		if rp.Dispatch == DispatchClosure {
			raja.Forall(rp.Policy(v), n, closure)
		} else {
			raja.ForallSpanG(rp.Policy(v), n, body)
		}
		return nil
	default:
		return RunVariant(v, rp, n, base, lambda, closure)
	}
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
