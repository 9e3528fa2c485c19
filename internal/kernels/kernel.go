// Package kernels defines the kernel abstraction of the RAJA Performance
// Suite: self-contained loop computations implemented in several variants
// (hand-written "Base", closure-based "Lambda", and portability-layer
// "RAJA", each over sequential, parallel, and GPU-style back-ends), grouped
// and annotated exactly as the paper's Table I, and reporting the analytic
// metrics of Section II-B (bytes read, bytes written, FLOPs, FLOPs/byte).
//
// Every kernel also exposes an instruction-mix descriptor (Mix) that the
// hardware models in packages tma and gpusim consume to derive top-down
// pipeline metrics and instruction-roofline counters for the simulated
// machines.
package kernels

import (
	"context"
	"fmt"

	"rajaperf/internal/raja"
)

// Group is one of the suite's seven kernel groups (Table I).
type Group int

// The seven groups, in the paper's order.
const (
	Algorithms Group = iota
	Apps
	Basic
	Comm
	Lcals
	Polybench
	Stream
	numGroups
)

// String returns the group name used in kernel identifiers, e.g. "Algorithm"
// in "Algorithm_SCAN".
func (g Group) String() string {
	switch g {
	case Algorithms:
		return "Algorithm"
	case Apps:
		return "Apps"
	case Basic:
		return "Basic"
	case Comm:
		return "Comm"
	case Lcals:
		return "Lcals"
	case Polybench:
		return "Polybench"
	case Stream:
		return "Stream"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// Groups returns all seven groups in order.
func Groups() []Group {
	return []Group{Algorithms, Apps, Basic, Comm, Lcals, Polybench, Stream}
}

// VariantID identifies one implementation of a kernel.
type VariantID int

// The suite's variants. Base variants are hand-written loops, Lambda
// variants invoke a closure per iteration, RAJA variants dispatch through
// the raja portability layer. The GPU back-end is executed with
// block-scheduled parallelism and modeled as CUDA or HIP by the target
// machine.
const (
	BaseSeq VariantID = iota
	LambdaSeq
	RAJASeq
	BaseOpenMP
	LambdaOpenMP
	RAJAOpenMP
	BaseGPU
	RAJAGPU
	NumVariants
)

var variantNames = [...]string{
	BaseSeq:      "Base_Seq",
	LambdaSeq:    "Lambda_Seq",
	RAJASeq:      "RAJA_Seq",
	BaseOpenMP:   "Base_OpenMP",
	LambdaOpenMP: "Lambda_OpenMP",
	RAJAOpenMP:   "RAJA_OpenMP",
	BaseGPU:      "Base_GPU",
	RAJAGPU:      "RAJA_GPU",
}

// String returns the variant name, e.g. "RAJA_Seq".
func (v VariantID) String() string {
	if v < 0 || int(v) >= len(variantNames) {
		return fmt.Sprintf("Variant(%d)", int(v))
	}
	return variantNames[v]
}

// ParseVariant returns the VariantID named by s.
func ParseVariant(s string) (VariantID, error) {
	for i, n := range variantNames {
		if n == s {
			return VariantID(i), nil
		}
	}
	return 0, fmt.Errorf("kernels: unknown variant %q", s)
}

// IsSeq reports whether the variant runs on the sequential back-end.
func (v VariantID) IsSeq() bool { return v == BaseSeq || v == LambdaSeq || v == RAJASeq }

// IsOpenMP reports whether the variant runs on the fork-join parallel
// back-end.
func (v VariantID) IsOpenMP() bool {
	return v == BaseOpenMP || v == LambdaOpenMP || v == RAJAOpenMP
}

// IsGPU reports whether the variant runs on the block-scheduled GPU-style
// back-end.
func (v VariantID) IsGPU() bool { return v == BaseGPU || v == RAJAGPU }

// IsRAJA reports whether the variant goes through the portability layer.
func (v VariantID) IsRAJA() bool {
	return v == RAJASeq || v == RAJAOpenMP || v == RAJAGPU
}

// Feature is a RAJA feature a kernel exercises (Table I's feature columns).
type Feature int

// Feature annotations from Table I.
const (
	FeatSort Feature = iota
	FeatScan
	FeatReduction
	FeatAtomic
	FeatView
	FeatWorkgroup
	FeatMPI
)

// String returns the feature's display name.
func (f Feature) String() string {
	switch f {
	case FeatSort:
		return "Sort"
	case FeatScan:
		return "Scan"
	case FeatReduction:
		return "Reduction"
	case FeatAtomic:
		return "Atomic"
	case FeatView:
		return "View"
	case FeatWorkgroup:
		return "Workgroup"
	case FeatMPI:
		return "MPI"
	default:
		return fmt.Sprintf("Feature(%d)", int(f))
	}
}

// Complexity is a kernel's operation count relative to its data size
// (Table I's complexity column).
type Complexity int

// Complexity classes from Table I.
const (
	CxN    Complexity = iota // O(n)
	CxNLgN                   // O(n lg n): sorts
	CxN32                    // O(n^{3/2}): matrix-matrix kernels
	CxN23                    // O(n^{2/3}): halo surface kernels
)

// String returns the complexity in the paper's notation.
func (c Complexity) String() string {
	switch c {
	case CxN:
		return "n"
	case CxNLgN:
		return "n lg n"
	case CxN32:
		return "n^(3/2)"
	case CxN23:
		return "n^(2/3)"
	default:
		return fmt.Sprintf("Complexity(%d)", int(c))
	}
}

// AccessPattern classifies a kernel's dominant memory access shape for the
// hardware models.
type AccessPattern int

// Access patterns, from perfectly coalesced to pointer-chasing.
const (
	AccessUnit AccessPattern = iota
	AccessStrided
	AccessIndirect
	AccessRandom
)

// Mix is a kernel's per-iteration instruction and memory profile. The TMA
// and GPU models derive hardware metrics for the simulated machines from
// it. "Per iteration" means per unit of problem size per rep.
type Mix struct {
	Flops    float64 // floating-point operations
	Loads    float64 // 8-byte loads
	Stores   float64 // 8-byte stores
	IntOps   float64 // integer/address ALU operations beyond loop control
	Branches float64 // conditional branches

	Scalar     bool    // body cannot vectorize (strict-FP chains, complex control)
	BrMissRate float64 // fraction of branches mispredicted (0..1)
	Atomics    float64 // atomic read-modify-writes
	Pattern    AccessPattern
	Reuse      float64 // temporal-reuse hit fraction for loads (0..1)
	ILP        float64 // issuable instructions/cycle before dependences bind (0 = default)

	WorkingSetBytes float64 // bytes resident per rank at the run's size
	FootprintKB     float64 // instruction footprint of the loop body
	Divergence      float64 // GPU branch-divergence fraction (0..1)
	GPUFlopEff      float64 // multiplier on the GPU's calibrated FP ceiling (0 = 1); kernels with exceptional register reuse exceed the GEMM-probe efficiency
	ParallelWork    float64 // GPU-parallel work items per rank per rep when the parallel loop is coarser than the inner work (0 = every work item is a thread); row-parallel matvecs expose only N threads
	LaunchesPerRep  float64 // kernel launches per rep (GPU back-ends)
	MPIFraction     float64 // fraction of time in communication (Comm group)
}

// ILPOrDefault returns the mix's ILP, defaulting to a moderate 3-wide
// dependence-limited issue when unset.
func (m Mix) ILPOrDefault() float64 {
	if m.ILP > 0 {
		return m.ILP
	}
	return 3
}

// AnalyticMetrics are the platform-independent metrics of Section II-B,
// per rep at the kernel's configured problem size.
type AnalyticMetrics struct {
	BytesRead    float64
	BytesWritten float64
	Flops        float64
}

// FlopsPerByte returns FLOPs per byte of memory touched, the derived
// arithmetic-intensity metric of Fig 1.
func (a AnalyticMetrics) FlopsPerByte() float64 {
	b := a.BytesRead + a.BytesWritten
	if b == 0 {
		return 0
	}
	return a.Flops / b
}

// WorkItems estimates how many applications of the per-iteration Mix one
// rep performs, from the analytic metrics. For O(n) kernels this equals
// the problem size; for superlinear kernels (matrix products) it is the
// inner-operation count, which is what the hardware models must scale by.
func WorkItems(am AnalyticMetrics, mix Mix) float64 {
	if mix.Flops > 0 && am.Flops > 0 {
		return am.Flops / mix.Flops
	}
	if denom := 8 * (mix.Loads + mix.Stores); denom > 0 {
		return (am.BytesRead + am.BytesWritten) / denom
	}
	return 0
}

// Info is the static description of a kernel.
type Info struct {
	Name        string // e.g. "TRIAD"
	Group       Group
	Features    []Feature
	Complexity  Complexity
	DefaultSize int // default problem size per rank
	DefaultReps int // default repetition count
	Variants    []VariantID
}

// FullName returns the group-qualified kernel name used throughout the
// paper's figures, e.g. "Stream_TRIAD".
func (in *Info) FullName() string {
	return in.Group.String() + "_" + in.Name
}

// HasVariant reports whether the kernel implements v.
func (in *Info) HasVariant(v VariantID) bool {
	for _, x := range in.Variants {
		if x == v {
			return true
		}
	}
	return false
}

// HasFeature reports whether the kernel is annotated with f.
func (in *Info) HasFeature(f Feature) bool {
	for _, x := range in.Features {
		if x == f {
			return true
		}
	}
	return false
}

// RunParams configures one execution of a kernel variant.
type RunParams struct {
	Size     int // problem size per rank (0 = kernel default)
	Reps     int // repetitions (0 = kernel default)
	Workers  int // parallel workers for OpenMP back-end (0 = all cores)
	GPUBlock int // block size for GPU back-end (0 = raja.DefaultBlock)
	Ranks    int // simulated MPI ranks for Comm kernels (0 = 4)

	// Ctx carries cancellation for the run. The suite driver checks it
	// between kernels; long-running kernels may additionally poll
	// Canceled between repetitions to abandon work early. Nil means
	// context.Background().
	Ctx context.Context

	// Schedule selects the parallel loop schedule (static/dynamic/guided)
	// for the OpenMP and GPU back-ends. Zero means the back-end default.
	Schedule raja.Schedule
	// Pool is the persistent executor all reps of the run dispatch
	// through. Nil means the shared raja.Default() pool, so a whole
	// suite run reuses one set of parked workers.
	Pool *raja.Pool

	// ModelOnly makes SetUp compute metrics and the instruction mix
	// without allocating kernel data (see Alloc); Run must not follow.
	// The zero value executes.
	ModelOnly bool
}

// Context resolves the run's cancellation context.
func (rp RunParams) Context() context.Context {
	if rp.Ctx != nil {
		return rp.Ctx
	}
	return context.Background()
}

// Canceled reports whether the run's context has been canceled — the
// check kernels with long rep loops poll between repetitions.
func (rp RunParams) Canceled() bool {
	if rp.Ctx == nil {
		return false
	}
	return rp.Ctx.Err() != nil
}

// ExecPool resolves the executor pool for this run.
func (rp RunParams) ExecPool() *raja.Pool {
	if rp.Pool != nil {
		return rp.Pool
	}
	return raja.Default()
}

// EffectiveSize resolves the problem size against the kernel's default.
func (rp RunParams) EffectiveSize(in *Info) int {
	if rp.Size > 0 {
		return rp.Size
	}
	return in.DefaultSize
}

// EffectiveReps resolves the rep count against the kernel's default.
func (rp RunParams) EffectiveReps(in *Info) int {
	if rp.Reps > 0 {
		return rp.Reps
	}
	return in.DefaultReps
}

// EffectiveRanks resolves the simulated rank count.
func (rp RunParams) EffectiveRanks() int {
	if rp.Ranks > 0 {
		return rp.Ranks
	}
	return 4
}

// Policy returns the raja execution policy for variant v under these
// parameters.
func (rp RunParams) Policy(v VariantID) raja.Policy {
	switch {
	case v.IsOpenMP():
		return raja.Policy{Kind: raja.Par, Workers: rp.Workers,
			Schedule: rp.Schedule, Pool: rp.Pool}
	case v.IsGPU():
		return raja.Policy{Kind: raja.GPU, Workers: rp.Workers, Block: rp.GPUBlock,
			Schedule: rp.Schedule, Pool: rp.Pool}
	default:
		return raja.SeqPolicy()
	}
}

// Kernel is one benchmark kernel of the suite. The lifecycle is
// SetUp -> Run (any number of variants) -> Checksum -> TearDown.
// All variants of a kernel must produce the same checksum to within
// floating-point tolerance; the harness enforces it.
type Kernel interface {
	// Info returns the kernel's static description.
	Info() *Info
	// SetUp allocates and initializes the kernel's data for rp.
	SetUp(rp RunParams)
	// Run executes rp.EffectiveReps repetitions of variant v.
	// It returns an error if v is not implemented.
	Run(v VariantID, rp RunParams) error
	// Checksum returns a deterministic digest of the kernel's outputs.
	Checksum() float64
	// TearDown releases the kernel's data.
	TearDown()
	// Metrics returns the per-rep analytic metrics at the size used in
	// the preceding SetUp.
	Metrics() AnalyticMetrics
	// Mix returns the per-iteration instruction-mix descriptor at the
	// size used in the preceding SetUp.
	Mix() Mix
}

// ErrVariantUnsupported is returned (wrapped) by Run for variants the
// kernel does not implement.
type ErrVariantUnsupported struct {
	Kernel  string
	Variant VariantID
}

// Error implements error.
func (e *ErrVariantUnsupported) Error() string {
	return fmt.Sprintf("kernel %s does not implement variant %s", e.Kernel, e.Variant)
}
