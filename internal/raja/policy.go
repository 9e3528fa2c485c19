// Package raja is a pure-Go performance-portability layer modeled on the
// RAJA C++ abstraction (Beckingsale et al., P3HPC 2019). Kernel bodies are
// written once and dispatched to different execution back-ends through an
// execution Policy: sequential, fork-join parallel (the OpenMP analog), or
// block-scheduled parallel (the GPU analog used by the simulated devices).
//
// The package provides the RAJA feature set exercised by the RAJA
// Performance Suite: forall and span dispatch, reductions, atomic
// operations, multi-dimensional views, an exclusive scan, sorts, and
// workgroups for fused kernel launches.
package raja

import "runtime"

// PolicyKind identifies the execution back-end used by Forall and friends.
type PolicyKind int

const (
	// Seq executes iterations in order on the calling goroutine.
	Seq PolicyKind = iota
	// Par executes iterations on a pool of goroutines with contiguous
	// chunking, the shared-memory analog of an OpenMP parallel-for.
	Par
	// GPU executes iterations in fixed-size blocks scheduled across a
	// pool of goroutines, mirroring thread-block scheduling on a GPU.
	// The block size is the tuning parameter studied by the suite.
	GPU
)

// String returns the conventional short name for the policy kind.
func (k PolicyKind) String() string {
	switch k {
	case Seq:
		return "seq"
	case Par:
		return "par"
	case GPU:
		return "gpu"
	default:
		return "unknown"
	}
}

// Policy selects an execution back-end and its parameters.
type Policy struct {
	Kind PolicyKind
	// Workers is the number of execution lanes used by Par and GPU
	// policies. Zero means runtime.GOMAXPROCS(0).
	Workers int
	// Block is the iteration block size for dynamic scheduling (zero
	// means DefaultBlock) and the minimum grab for guided scheduling
	// (zero means GuidedMinGrab). Static schedules ignore it.
	Block int
	// Schedule maps iterations onto workers under Par and GPU policies.
	// ScheduleDefault means static chunking for Par and dynamic block
	// scheduling for GPU.
	Schedule Schedule
	// Pool is the persistent executor parallel policies dispatch through.
	// Nil means the shared Default() pool.
	Pool *Pool
}

// DefaultBlock is the GPU block size used when Policy.Block is zero,
// matching the suite's default CUDA/HIP block size.
const DefaultBlock = 256

// SeqPolicy returns a sequential execution policy.
func SeqPolicy() Policy { return Policy{Kind: Seq} }

// workers resolves the effective worker count for the policy.
func (p Policy) workers() int {
	if p.Kind == Seq {
		return 1
	}
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// block resolves the effective block size for the policy.
func (p Policy) block() int {
	if p.Block > 0 {
		return p.Block
	}
	return DefaultBlock
}

// guidedMin resolves the guided schedule's minimum grab size.
func (p Policy) guidedMin() int {
	if p.Block > 0 {
		return p.Block
	}
	return GuidedMinGrab
}

// schedule resolves ScheduleDefault by policy kind.
func (p Policy) schedule() Schedule {
	if p.Schedule != ScheduleDefault {
		return p.Schedule
	}
	if p.Kind == GPU {
		return ScheduleDynamic
	}
	return ScheduleStatic
}

// pool resolves the executor pool for the policy.
func (p Policy) pool() *Pool {
	if p.Pool != nil {
		return p.Pool
	}
	return Default()
}

// MaxWorkers reports the number of distinct Ctx.Worker values Forall may
// pass to a body under this policy. Reductions size their lanes with it.
func (p Policy) MaxWorkers() int { return p.workers() }
