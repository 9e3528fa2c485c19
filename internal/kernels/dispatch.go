package kernels

import (
	"sync"

	"rajaperf/internal/raja"
)

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
// from one RunVariant call per rep, and single-value reductions from one
// RunReduce call; kernels with multi-bin reductions, scans, or
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

// RunReduce executes one reduction over [0, n) in the style of variant v
// and returns its value. body is the kernel's one reduction body and
// lambda folds index i into an accumulator, the reduction's per-index
// closure:
//
//   - Base variants run body.Partial directly: Base_Seq returns
//     body.Combine(body.Init(), body.Partial(0, n)), the expression
//     raja.ForallReduce evaluates under Seq; Base_OpenMP and Base_GPU
//     run Partial per static chunk or dynamic block and combine each
//     granule's partial into body.Init() under a mutex, in arrival order;
//   - Lambda variants fold lambda per index from the reduction's identity
//     (body.Partial over an empty span), over the whole range or per
//     static chunk, and combine the result as Base does;
//   - RAJA variants call raja.ForallReduce under the policy implied by v
//     and rp.
//
// Base_Seq, Lambda_Seq and RAJA_Seq therefore agree bit for bit whenever
// lambda folds an index the way Partial does.
func RunReduce[A any, B raja.Reducer[A]](v VariantID, rp RunParams, n int, body B, lambda func(acc A, i int) A) (A, error) {
	switch v {
	case BaseSeq:
		return body.Combine(body.Init(), body.Partial(0, n)), nil
	case LambdaSeq:
		return body.Combine(body.Init(), fold(body, lambda, 0, n)), nil
	case BaseOpenMP, LambdaOpenMP, BaseGPU:
		m := &merged[A, B]{acc: body.Init(), body: body}
		switch v {
		case BaseOpenMP:
			rp.ExecPool().StaticChunks(rp.Workers, n, func(_, lo, hi int) { m.add(body.Partial(lo, hi)) })
		case LambdaOpenMP:
			rp.ExecPool().StaticChunks(rp.Workers, n, func(_, lo, hi int) { m.add(fold(body, lambda, lo, hi)) })
		case BaseGPU:
			rp.ExecPool().DynamicBlocks(rp.Workers, rp.GPUBlock, n, func(lo, hi int) { m.add(body.Partial(lo, hi)) })
		}
		return m.acc, nil
	case RAJASeq, RAJAOpenMP, RAJAGPU:
		return raja.ForallReduce[A](rp.Policy(v), n, body), nil
	}
	var zero A
	return zero, &ErrVariantUnsupported{Variant: v}
}

// fold runs lambda over [lo, hi) from the reduction's identity.
func fold[A any, B raja.Reducer[A]](body B, lambda func(A, int) A, lo, hi int) A {
	acc := body.Partial(0, 0)
	for i := lo; i < hi; i++ {
		acc = lambda(acc, i)
	}
	return acc
}

// merged is the accumulator the hand-written parallel reductions combine
// their granule partials into. add holds the lock across body.Combine,
// a pure fold of two values that cannot block.
type merged[A any, B raja.Reducer[A]] struct {
	mu   sync.Mutex
	acc  A
	body B
}

func (m *merged[A, B]) add(part A) {
	m.mu.Lock()
	m.acc = m.body.Combine(m.acc, part)
	m.mu.Unlock()
}

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
