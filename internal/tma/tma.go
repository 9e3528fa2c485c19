// Package tma implements a Top-Down Microarchitecture Analysis (TMA) model
// for the simulated CPU systems, standing in for the PAPI hardware counters
// the paper collects on Sapphire Rapids (Yasin, ISPASS 2014; paper Fig 2).
//
// The model performs pipeline-slot accounting driven by each kernel's
// instruction-mix descriptor and the machine's microarchitectural
// parameters, producing the level-1 breakdown (Frontend Bound, Bad
// Speculation, Retiring, Backend Bound) with the backend split into Core
// Bound and Memory Bound — the 5-tuple the paper clusters kernels on.
package tma

import (
	"fmt"
	"math"

	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
)

// Metrics is the top-down 5-tuple for one kernel on one machine. The five
// fields are fractions of total pipeline slots and sum to 1.
type Metrics struct {
	FrontendBound  float64
	BadSpeculation float64
	Retiring       float64
	CoreBound      float64
	MemoryBound    float64
}

// BackendBound returns the level-1 backend fraction (core + memory).
func (m Metrics) BackendBound() float64 { return m.CoreBound + m.MemoryBound }

// Vector returns the tuple in the paper's clustering order: frontend, bad
// speculation, retiring, core bound, memory bound.
func (m Metrics) Vector() []float64 {
	return []float64{m.FrontendBound, m.BadSpeculation, m.Retiring, m.CoreBound, m.MemoryBound}
}

// Dominant returns the name of the largest category.
func (m Metrics) Dominant() string {
	names := []string{"frontend_bound", "bad_speculation", "retiring", "core_bound", "memory_bound"}
	v := m.Vector()
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return names[best]
}

// String formats the tuple compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("fe=%.3f bs=%.3f ret=%.3f core=%.3f mem=%.3f",
		m.FrontendBound, m.BadSpeculation, m.Retiring, m.CoreBound, m.MemoryBound)
}

// Result carries the slot breakdown plus the modeled execution profile.
type Result struct {
	Metrics Metrics
	// SecondsPerRep is the modeled node-level wall time of one rep.
	SecondsPerRep float64
	// Counters holds PAPI-style raw counter values per rep, suitable
	// for recording into Caliper profiles.
	Counters map[string]float64
}

// Model evaluates the top-down breakdown of a kernel on a CPU machine.
type Model struct {
	mach *machine.Machine
}

// NewModel returns a TMA model for m, which must be a CPU machine.
func NewModel(m *machine.Machine) (*Model, error) {
	if m.Kind != machine.CPU || m.CPU == nil {
		return nil, fmt.Errorf("tma: machine %s is not a CPU system", m)
	}
	return &Model{mach: m}, nil
}

// Analyze models one kernel at node problem size n (total iterations per
// node per rep). The mix describes per-iteration behavior; am gives the
// per-rep analytic byte/flop totals used for bandwidth accounting.
func (md *Model) Analyze(mix kernels.Mix, am kernels.AnalyticMetrics, n int) Result {
	cpu := md.mach.CPU
	if n <= 0 {
		n = 1
	}

	// Effective vectorization: unit-stride, non-atomic bodies vectorize
	// over the machine's FP64 lanes; masked vectorization tolerates mild
	// branching.
	vec := 1.0
	switch {
	case mix.Scalar:
		// strict-FP chains or complex control keep the body scalar
	case mix.Pattern == kernels.AccessUnit && mix.Atomics == 0 && mix.BrMissRate < 0.10:
		vec = float64(cpu.SIMDDoubles)
	case mix.Pattern == kernels.AccessStrided && mix.Atomics == 0:
		vec = float64(cpu.SIMDDoubles) / 2
	}

	// Retired slots per iteration: vector ops amortize lanes, scalar
	// bookkeeping does not. Loop control adds ~2 instructions per
	// vector-width elements.
	instr := mix.Flops/vec + (mix.Loads+mix.Stores)/vec + mix.IntOps +
		mix.Branches + 2.0/vec + 4*mix.Atomics

	// Instruction-level parallelism cap: dependent chains keep real
	// kernels well under the issue width.
	ilp := mix.ILPOrDefault()
	if ilp > float64(cpu.IssueWidth) {
		ilp = float64(cpu.IssueWidth)
	}

	// Core execution cycles: dependence-limited issue vs FP throughput.
	// The FP ceiling is calibrated to the machine's achieved fraction
	// (Table II's MAT_MAT_SHARED probe), not the theoretical FMA rate.
	retireCyc := instr / float64(cpu.IssueWidth)
	issueCyc := instr / ilp
	effFlopsPerCyc := md.mach.PeakTFLOPSNode * 1e12 * md.mach.AchievedFlopsFrac /
		(float64(cpu.Cores) * cpu.FreqGHz * 1e9)
	fpCyc := mix.Flops / effFlopsPerCyc
	if vec == 1 {
		// Scalar code cannot reach the vector FP ceiling.
		fpCyc = math.Max(fpCyc, mix.Flops/(2*float64(cpu.FMAPerCycle)))
	}
	// Locked RMW cost: spread atomics stall in the store path (TMA books
	// them as memory/store bound); a contended single-line hotspot
	// serializes in the core instead.
	atomCyc := mix.Atomics * 20
	coreCyc := math.Max(issueCyc, fpCyc)
	atomMemCyc := 0.0
	if mix.WorkingSetBytes >= 4096 {
		atomMemCyc = atomCyc
	} else {
		coreCyc += atomCyc
	}

	// Memory cycles: DRAM-level traffic per iteration determined by the
	// cache-resident share of the working set, plus a latency term for
	// irregular access that prefetchers cannot hide.
	dramFrac := md.dramFraction(mix)
	bytesIter := 8 * (mix.Loads*(1-mix.Reuse) + mix.Stores) * dramFrac
	bwNode := md.mach.AchievedBWTBsNode() * 1e12 // bytes/s
	bwPerCoreCyc := bwNode / float64(cpu.Cores) / (cpu.FreqGHz * 1e9)
	memCyc := 0.0
	if bwPerCoreCyc > 0 {
		memCyc = bytesIter / bwPerCoreCyc
	}
	// Latency exposure for irregular patterns (limited MLP). Regular
	// access misses once per 64-byte line and prefetchers hide nearly
	// all of it; irregular access misses per element with little
	// memory-level parallelism.
	mlp := map[kernels.AccessPattern]float64{
		kernels.AccessUnit:     32,
		kernels.AccessStrided:  12,
		kernels.AccessIndirect: 4,
		kernels.AccessRandom:   2,
	}[mix.Pattern]
	linesPerAccess := map[kernels.AccessPattern]float64{
		kernels.AccessUnit:     1.0 / 8,
		kernels.AccessStrided:  1.0 / 2,
		kernels.AccessIndirect: 1,
		kernels.AccessRandom:   1,
	}[mix.Pattern]
	misses := (mix.Loads*(1-mix.Reuse) + mix.Stores) * dramFrac * linesPerAccess
	latCyc := misses * cpu.MemLatencyNs * cpu.FreqGHz / mlp
	if latCyc > memCyc {
		memCyc = latCyc
	}

	// Frontend cycles: pressure grows with the body's instruction
	// footprint relative to the instruction cache.
	fePressure := 0.02 + 0.9*math.Min(1.2, mix.FootprintKB/48.0)
	feCyc := instr / float64(cpu.FrontendWidth) * fePressure

	// Bad speculation cycles: mispredicted branches flush the pipe.
	bsCyc := mix.Branches * mix.BrMissRate * cpu.BrMissPenaltyCyc

	// Memory stalls overlap partially with core execution.
	memStall := math.Max(0, memCyc-0.35*coreCyc) + atomMemCyc

	totalCyc := coreCyc + memStall + feCyc + bsCyc
	totalSlots := float64(cpu.IssueWidth) * totalCyc

	retiring := instr / totalSlots
	badspec := float64(cpu.IssueWidth) * bsCyc / totalSlots
	frontend := float64(cpu.IssueWidth) * feCyc / totalSlots
	backend := math.Max(0, 1-retiring-badspec-frontend)

	coreStall := math.Max(0, coreCyc-retireCyc) + 1e-12
	memShare := memStall / (memStall + coreStall)

	m := Metrics{
		FrontendBound:  frontend,
		BadSpeculation: badspec,
		Retiring:       retiring,
		CoreBound:      backend * (1 - memShare),
		MemoryBound:    backend * memShare,
	}
	m = normalize(m)

	// Node-level time: iterations are decomposed across ranks pinned one
	// per core; every rep pays a small dispatch/barrier overhead, and
	// Comm kernels add their communication share on top.
	ranks := md.mach.Ranks
	if ranks > cpu.Cores {
		ranks = cpu.Cores
	}
	itersPerCore := float64(n) / float64(ranks)
	sec := itersPerCore * totalCyc / (cpu.FreqGHz * 1e9)
	sec += 5e-6 // per-rep dispatch overhead
	if mix.MPIFraction > 0 && mix.MPIFraction < 1 {
		sec = sec / (1 - mix.MPIFraction)
	}

	counters := map[string]float64{
		"PAPI_TOT_INS":  instr * float64(n),
		"PAPI_TOT_CYC":  totalCyc * float64(n),
		"PAPI_FP_OPS":   am.Flops,
		"PAPI_LD_INS":   mix.Loads * float64(n),
		"PAPI_SR_INS":   mix.Stores * float64(n),
		"PAPI_BR_MSP":   mix.Branches * mix.BrMissRate * float64(n),
		"PAPI_BR_INS":   mix.Branches * float64(n),
		"PAPI_RES_STL":  (memStall + math.Max(0, coreCyc-retireCyc)) * float64(n),
		"dram_bytes":    bytesIter * float64(n),
		"slots":         totalSlots * float64(n),
		"slots_retired": instr * float64(n),
	}

	return Result{
		Metrics:       m,
		SecondsPerRep: sec,
		Counters:      counters,
	}
}

// dramFraction estimates the share of per-iteration traffic that reaches
// DRAM, from the working set relative to the caches available to one rank.
func (md *Model) dramFraction(mix kernels.Mix) float64 {
	cpu := md.mach.CPU
	// With every core streaming, the shared LLC is heavily contended and
	// even private L2 thrashes between array passes; only a fraction of
	// a rank's nominal cache holds useful data.
	cachePerRank := 0.75*float64(cpu.L2KB)*1024 +
		0.2*float64(cpu.L3MBNode)*1024*1024/float64(cpu.Cores)
	ws := mix.WorkingSetBytes
	if ws <= 0 {
		return 0.05
	}
	// Below ~0.8x of the cache the data is resident (only cold misses);
	// past ~1.5x an LRU-managed cache thrashes on streaming access and
	// essentially everything reaches DRAM.
	r := ws / cachePerRank
	switch {
	case r <= 0.8:
		return 0.04
	case r >= 1.5:
		return 1.0
	default:
		return 0.04 + (1.0-0.04)*(r-0.8)/0.7
	}
}

func normalize(m Metrics) Metrics {
	s := m.FrontendBound + m.BadSpeculation + m.Retiring + m.CoreBound + m.MemoryBound
	if s <= 0 {
		return Metrics{Retiring: 1}
	}
	m.FrontendBound /= s
	m.BadSpeculation /= s
	m.Retiring /= s
	m.CoreBound /= s
	m.MemoryBound /= s
	return m
}

// Hierarchy describes the top-down tree of Fig 2, for documentation and
// the fig2 experiment output.
type Node struct {
	Name     string
	Children []Node
}

// Hierarchy returns the TMA category tree (Fig 2): the four level-1
// categories with the backend split into core and memory levels.
func Hierarchy() Node {
	return Node{
		Name: "Pipeline Slots",
		Children: []Node{
			{Name: "Frontend Bound", Children: []Node{
				{Name: "Fetch Latency"}, {Name: "Fetch Bandwidth"},
			}},
			{Name: "Bad Speculation", Children: []Node{
				{Name: "Branch Mispredicts"}, {Name: "Machine Clears"},
			}},
			{Name: "Retiring", Children: []Node{
				{Name: "Base"}, {Name: "Microcode Sequencer"},
			}},
			{Name: "Backend Bound", Children: []Node{
				{Name: "Core Bound", Children: []Node{
					{Name: "Divider"}, {Name: "Ports Utilization"},
				}},
				{Name: "Memory Bound", Children: []Node{
					{Name: "L1 Bound"}, {Name: "L2 Bound"},
					{Name: "L3 Bound"}, {Name: "DRAM Bound"},
					{Name: "Store Bound"},
				}},
			}},
		},
	}
}
