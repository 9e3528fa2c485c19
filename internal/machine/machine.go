// Package machine defines parameterized models of the computer systems the
// paper evaluates (Table II): two Intel Sapphire Rapids CPU nodes (DDR and
// HBM memory), an IBM Power9 + NVIDIA V100 node, and an AMD EPYC + MI250X
// node, plus a Host model describing the machine the suite actually runs
// on. The models carry both the published peak rates and the calibrated
// achieved fractions from the paper's probe kernels (Basic_MAT_MAT_SHARED
// for FLOPS, Stream_TRIAD for bandwidth), along with the microarchitectural
// parameters consumed by the TMA slot model (package tma) and the GPU
// transaction model (package gpusim).
package machine

import (
	"fmt"
	"runtime"
)

// Kind distinguishes CPU-only nodes from GPU-accelerated nodes.
type Kind int

const (
	// CPU marks a node whose kernels execute on host cores.
	CPU Kind = iota
	// GPU marks a node whose kernels execute on accelerators.
	GPU
)

// String returns "CPU" or "GPU".
func (k Kind) String() string {
	if k == GPU {
		return "GPU"
	}
	return "CPU"
}

// Backend names the programming-model back-end the paper used on a system
// (Table III's variant column).
type Backend string

// Back-ends used in the paper's experiments.
const (
	BackendSeq    Backend = "Seq"
	BackendOpenMP Backend = "OpenMP"
	BackendCUDA   Backend = "CUDA"
	BackendHIP    Backend = "HIP"
)

// CPUParams holds the microarchitectural parameters of a CPU node consumed
// by the top-down (TMA) slot model.
type CPUParams struct {
	Cores            int     // cores per node
	FreqGHz          float64 // sustained clock
	IssueWidth       int     // pipeline slots per cycle (TMA denominator)
	SIMDDoubles      int     // FP64 lanes per vector instruction
	FMAPerCycle      int     // vector FMA issue ports
	L2KB             int     // per-core L2
	L3MBNode         int     // shared LLC per node
	MemLatencyNs     float64 // loaded memory latency
	BrMissPenaltyCyc float64 // pipeline flush cost of a mispredict
	FrontendWidth    int     // decode slots per cycle
}

// GPUParams holds the parameters of one GPU (or GCD) consumed by the
// instruction-roofline transaction model.
type GPUParams struct {
	SMs             int     // streaming multiprocessors / compute units
	WarpSize        int     // threads per warp (32 NVIDIA, 64 AMD)
	ClockGHz        float64 // SM clock
	L1KBPerSM       int     // unified L1/shared per SM
	L2MB            int     // device L2
	SectorBytes     int     // memory transaction granularity
	LaunchOverhead  float64 // per-kernel-launch overhead, microseconds
	L1GTXNs         float64 // L1 transaction ceiling, 1e9 txn/s
	L2GTXNs         float64 // L2 transaction ceiling, 1e9 txn/s
	DRAMGTXNs       float64 // DRAM transaction ceiling, 1e9 txn/s
	MaxWarpGIPS     float64 // instruction-issue ceiling, 1e9 warp-inst/s (SMs × ClockGHz × 4)
	AtomicThroughpt float64 // atomic ops per cycle per SM before serializing
}

// Machine describes one system from Table II plus the model parameters the
// simulators need.
type Machine struct {
	Shorthand string // e.g. "SPR-DDR"
	Arch      string // e.g. "Intel Sapphire Rapids"
	Kind      Kind
	Backend   Backend // variant back-end from Table III
	Tuning    string  // GPU block-size tuning from Table III ("" for CPU)

	UnitsPerNode int // sockets or GPUs/GCDs per node
	Ranks        int // MPI ranks per node used in the paper (Table III)

	// Published peak rates (Table II).
	PeakTFLOPSUnit float64
	PeakTFLOPSNode float64
	PeakBWTBsUnit  float64
	PeakBWTBsNode  float64

	// Calibrated achieved fractions from the paper's probe kernels:
	// Basic_MAT_MAT_SHARED for FLOPS (the "% exp" columns of Table II)
	// and Stream_TRIAD for bandwidth.
	AchievedFlopsFrac float64
	AchievedBWFrac    float64

	CPU *CPUParams // non-nil when Kind == CPU
	GPU *GPUParams // non-nil when Kind == GPU
}

// AchievedTFLOPSNode returns the node FLOP rate the probe kernel reached.
func (m *Machine) AchievedTFLOPSNode() float64 {
	return m.PeakTFLOPSNode * m.AchievedFlopsFrac
}

// AchievedBWTBsNode returns the node memory bandwidth TRIAD reached.
func (m *Machine) AchievedBWTBsNode() float64 {
	return m.PeakBWTBsNode * m.AchievedBWFrac
}

// String returns the machine's shorthand name.
func (m *Machine) String() string { return m.Shorthand }

// SPRDDR returns the model of the Poodle Sapphire Rapids node with DDR
// memory (Table II row 1).
func SPRDDR() *Machine {
	return &Machine{
		Shorthand:         "SPR-DDR",
		Arch:              "Intel Sapphire Rapids",
		Kind:              CPU,
		Backend:           BackendSeq,
		UnitsPerNode:      2,
		Ranks:             112,
		PeakTFLOPSUnit:    2.3,
		PeakTFLOPSNode:    4.7,
		PeakBWTBsUnit:     0.3,
		PeakBWTBsNode:     0.6,
		AchievedFlopsFrac: 0.180,
		AchievedBWFrac:    0.777,
		CPU:               sprCPUParams(90),
	}
}

// SPRHBM returns the model of the Poodle Sapphire Rapids node with
// high-bandwidth memory (Table II row 2).
func SPRHBM() *Machine {
	return &Machine{
		Shorthand:         "SPR-HBM",
		Arch:              "Intel Sapphire Rapids",
		Kind:              CPU,
		Backend:           BackendSeq,
		UnitsPerNode:      2,
		Ranks:             112,
		PeakTFLOPSUnit:    2.3,
		PeakTFLOPSNode:    4.7,
		PeakBWTBsUnit:     1.6,
		PeakBWTBsNode:     3.3,
		AchievedFlopsFrac: 0.155,
		AchievedBWFrac:    0.337,
		CPU:               sprCPUParams(115),
	}
}

func sprCPUParams(memLatNs float64) *CPUParams {
	return &CPUParams{
		Cores:            112,
		FreqGHz:          2.0,
		IssueWidth:       6,
		SIMDDoubles:      8, // AVX-512
		FMAPerCycle:      2,
		L2KB:             2048,
		L3MBNode:         225, // 112.5 MB per socket
		MemLatencyNs:     memLatNs,
		BrMissPenaltyCyc: 17,
		FrontendWidth:    6,
	}
}

// P9V100 returns the model of the Sierra Power9 + 4x NVIDIA V100 node
// (Table II row 3). GPU ceilings follow the instruction-roofline
// characterization of the V100 by Ding and Williams.
func P9V100() *Machine {
	return &Machine{
		Shorthand:         "P9-V100",
		Arch:              "NVIDIA V100",
		Kind:              GPU,
		Backend:           BackendCUDA,
		Tuning:            "block_256",
		UnitsPerNode:      4,
		Ranks:             4,
		PeakTFLOPSUnit:    7.8,
		PeakTFLOPSNode:    31.2,
		PeakBWTBsUnit:     0.9,
		PeakBWTBsNode:     3.6,
		AchievedFlopsFrac: 0.224,
		AchievedBWFrac:    0.926,
		GPU: &GPUParams{
			SMs:             80,
			WarpSize:        32,
			ClockGHz:        1.53,
			L1KBPerSM:       128,
			L2MB:            6,
			SectorBytes:     32,
			LaunchOverhead:  8.0,
			L1GTXNs:         437.5,
			L2GTXNs:         93.6,
			DRAMGTXNs:       25.9,
			MaxWarpGIPS:     489.6,
			AtomicThroughpt: 0.25,
		},
	}
}

// EPYCMI250X returns the model of the Tioga EPYC + 4x MI250X node, whose
// eight GCDs the paper drives with eight MPI ranks (Table II row 4).
func EPYCMI250X() *Machine {
	return &Machine{
		Shorthand:         "EPYC-MI250X",
		Arch:              "AMD MI250X",
		Kind:              GPU,
		Backend:           BackendHIP,
		Tuning:            "block_256",
		UnitsPerNode:      8, // GCDs
		Ranks:             8,
		PeakTFLOPSUnit:    24.0,
		PeakTFLOPSNode:    191.5,
		PeakBWTBsUnit:     1.6,
		PeakBWTBsNode:     12.8,
		AchievedFlopsFrac: 0.070,
		AchievedBWFrac:    0.795,
		GPU: &GPUParams{
			SMs:             110, // CUs per GCD
			WarpSize:        64,  // wavefront
			ClockGHz:        1.70,
			L1KBPerSM:       16,
			L2MB:            8,
			SectorBytes:     32,
			LaunchOverhead:  10.0,
			L1GTXNs:         748.0,
			L2GTXNs:         220.0,
			DRAMGTXNs:       50.0,
			MaxWarpGIPS:     748.0,
			AtomicThroughpt: 0.20,
		},
	}
}

// Host returns a model of the machine the suite is actually running on. It
// is used for real wall-clock measurement runs; its model parameters are
// generic modern-x86 estimates and are not part of the paper reproduction.
func Host() *Machine {
	cores := runtime.GOMAXPROCS(0)
	peak := float64(cores) * 0.0384 // ~2.4 GHz * 2 FMA * 8 lanes
	bw := 0.08                      // ~80 GB/s generic DDR node
	return &Machine{
		Shorthand:         "Host",
		Arch:              runtime.GOARCH,
		Kind:              CPU,
		Backend:           BackendOpenMP,
		UnitsPerNode:      1,
		Ranks:             1,
		PeakTFLOPSUnit:    peak,
		PeakTFLOPSNode:    peak,
		PeakBWTBsUnit:     bw,
		PeakBWTBsNode:     bw,
		AchievedFlopsFrac: 0.25,
		AchievedBWFrac:    0.70,
		CPU: &CPUParams{
			Cores:            cores,
			FreqGHz:          2.4,
			IssueWidth:       4,
			SIMDDoubles:      4,
			FMAPerCycle:      2,
			L2KB:             1024,
			L3MBNode:         32,
			MemLatencyNs:     95,
			BrMissPenaltyCyc: 15,
			FrontendWidth:    4,
		},
	}
}

// Paper returns the four systems of Table II in the paper's row order.
func Paper() []*Machine {
	return []*Machine{SPRDDR(), SPRHBM(), P9V100(), EPYCMI250X()}
}

// ByName returns the machine with the given shorthand ("SPR-DDR",
// "SPR-HBM", "P9-V100", "EPYC-MI250X", or "Host").
func ByName(name string) (*Machine, error) {
	for _, m := range Paper() {
		if m.Shorthand == name {
			return m, nil
		}
	}
	if name == "Host" {
		return Host(), nil
	}
	return nil, fmt.Errorf("machine: unknown system %q", name)
}
