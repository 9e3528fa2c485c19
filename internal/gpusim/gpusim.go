// Package gpusim implements an analytical GPU performance model standing in
// for the NVIDIA V100 and AMD MI250X hardware the paper measures with
// Nsight Compute. Given a kernel's instruction-mix descriptor and a launch
// configuration, it models warp scheduling, memory-access coalescing into
// sector transactions through the L1/L2/DRAM hierarchy, atomic
// serialization, and per-launch overhead, producing:
//
//   - the NCU counter set of Table IV (thread instructions, L1/L2 sector
//     transactions by operation, DRAM sectors, kernel time), and
//   - the Instruction Roofline coordinates of Ding & Williams (warp GIPS
//     versus warp instructions per transaction, per cache level).
package gpusim

import (
	"fmt"
	"math"

	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
)

// Launch describes one kernel launch on the device.
type Launch struct {
	Items     int // work-items (one per problem element)
	BlockSize int // threads per block (tuning)
}

// Counters is the Nsight-Compute-style counter set of Table IV, summed
// over a rep on one GPU (or GCD).
type Counters struct {
	// Thread-based.
	ThreadInstExecuted float64 // sm__sass_thread_inst_executed.sum

	// Warp-based: L1 (L1TEX) sector transactions by operation.
	L1GlobalLoad  float64 // l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum
	L1GlobalStore float64 // l1tex__t_sectors_pipe_lsu_mem_global_op_st.sum
	L1LocalLoad   float64 // l1tex__t_sectors_pipe_lsu_mem_local_op_ld.sum
	L1LocalStore  float64 // l1tex__t_requests_pipe_lsu_mem_local_op_st.sum

	// L2 (LTS) sector transactions by operation.
	L2Read   float64 // lts__t_sectors_op_read.sum
	L2Write  float64 // lts__t_sectors_op_write.sum
	L2Atomic float64 // lts__t_sectors_op_atom.sum
	L2Red    float64 // lts__t_sectors_op_red.sum

	// DRAM sectors.
	DRAMRead  float64 // dram__sectors_read.sum
	DRAMWrite float64 // dram__sectors_write.sum

	// Kernel-based.
	TimeSec float64 // time (gpu)
}

// WarpInst returns the warp-level instruction count for a device with the
// given warp size.
func (c Counters) WarpInst(warpSize int) float64 {
	return c.ThreadInstExecuted / float64(warpSize)
}

// L1Transactions returns total L1 sector transactions.
func (c Counters) L1Transactions() float64 {
	return c.L1GlobalLoad + c.L1GlobalStore + c.L1LocalLoad + c.L1LocalStore
}

// L2Transactions returns total L2 sector transactions.
func (c Counters) L2Transactions() float64 {
	return c.L2Read + c.L2Write + c.L2Atomic + c.L2Red
}

// DRAMTransactions returns total DRAM sector transactions.
func (c Counters) DRAMTransactions() float64 { return c.DRAMRead + c.DRAMWrite }

// Map returns the counters keyed by their Nsight Compute metric names
// (Table IV), for recording into Caliper profiles.
func (c Counters) Map() map[string]float64 {
	return map[string]float64{
		"sm__sass_thread_inst_executed.sum":              c.ThreadInstExecuted,
		"l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum": c.L1GlobalLoad,
		"l1tex__t_sectors_pipe_lsu_mem_global_op_st.sum": c.L1GlobalStore,
		"l1tex__t_sectors_pipe_lsu_mem_local_op_ld.sum":  c.L1LocalLoad,
		"l1tex__t_requests_pipe_lsu_mem_local_op_st.sum": c.L1LocalStore,
		"lts__t_sectors_op_read.sum":                     c.L2Read,
		"lts__t_sectors_op_write.sum":                    c.L2Write,
		"lts__t_sectors_op_atom.sum":                     c.L2Atomic,
		"lts__t_sectors_op_red.sum":                      c.L2Red,
		"dram__sectors_read.sum":                         c.DRAMRead,
		"dram__sectors_write.sum":                        c.DRAMWrite,
		"gpu__time_duration.sum":                         c.TimeSec,
	}
}

// MetricNames returns the Table IV metric list in row order.
func MetricNames() []string {
	return []string{
		"sm__sass_thread_inst_executed.sum",
		"l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum",
		"l1tex__t_sectors_pipe_lsu_mem_global_op_st.sum",
		"l1tex__t_sectors_pipe_lsu_mem_local_op_ld.sum",
		"l1tex__t_requests_pipe_lsu_mem_local_op_st.sum",
		"lts__t_sectors_op_read.sum",
		"lts__t_sectors_op_write.sum",
		"lts__t_sectors_op_atom.sum",
		"lts__t_sectors_op_red.sum",
		"dram__sectors_read.sum",
		"dram__sectors_write.sum",
		"gpu__time_duration.sum",
	}
}

// Result is one modeled rep of a kernel on one device.
type Result struct {
	Counters      Counters
	SecondsPerRep float64 // node-level seconds per rep (all units, + launch)
	Occupancy     float64 // achieved occupancy fraction
	Bottleneck    string  // "issue", "l1", "l2", "dram", "atomic", "launch"
}

// Device models one GPU (V100-like) or one GCD (MI250X-like).
type Device struct {
	mach *machine.Machine
}

// NewDevice returns a device model for m, which must be a GPU machine.
func NewDevice(m *machine.Machine) (*Device, error) {
	if m.Kind != machine.GPU || m.GPU == nil {
		return nil, fmt.Errorf("gpusim: machine %s is not a GPU system", m)
	}
	return &Device{mach: m}, nil
}

// sectorsPerWarpAccess returns how many 32-byte sectors one warp-wide
// 8-byte access generates under the given pattern. A fully coalesced warp
// of 32 threads touching consecutive doubles covers 256 bytes = 8 sectors;
// a random warp touches one sector per thread.
func (d *Device) sectorsPerWarpAccess(p kernels.AccessPattern) float64 {
	g := d.mach.GPU
	coalesced := float64(g.WarpSize) * 8 / float64(g.SectorBytes)
	switch p {
	case kernels.AccessUnit:
		return coalesced
	case kernels.AccessStrided:
		return coalesced * 2.5
	case kernels.AccessIndirect:
		return coalesced * 3.2
	case kernels.AccessRandom:
		return float64(g.WarpSize)
	default:
		return coalesced
	}
}

// hitRates estimates L1 and L2 hit fractions from the working set and the
// kernel's temporal reuse.
func (d *Device) hitRates(mix kernels.Mix) (l1, l2 float64) {
	g := d.mach.GPU
	l1Bytes := float64(g.L1KBPerSM*g.SMs) * 1024
	l2Bytes := float64(g.L2MB) * 1024 * 1024
	ws := mix.WorkingSetBytes
	if ws <= 0 {
		ws = 1
	}
	// Streaming data has no temporal locality beyond the intra-warp
	// spatial reuse already captured by sectoring. The Reuse field
	// encodes achieved blocking locality (tiles fit in shared/L1
	// regardless of total footprint), so it applies unscaled; residency
	// of the whole working set additionally raises hits.
	l1 = 0.05 + 0.90*mix.Reuse + 0.50*(1-mix.Reuse)*math.Min(1, l1Bytes/ws)
	l2 = 0.05 + 0.85*math.Min(1, l2Bytes/ws) + 0.50*mix.Reuse
	if l1 > 0.97 {
		l1 = 0.97
	}
	if l2 > 0.95 {
		l2 = 0.95
	}
	if mix.Pattern == kernels.AccessRandom {
		l1 *= 0.3
		l2 *= 0.5
	}
	return l1, l2
}

// Run models one rep consisting of mix.LaunchesPerRep launches of the
// given launch shape, with the node's work decomposed across its
// UnitsPerNode devices (one rank per device, as in Table III).
func (d *Device) Run(mix kernels.Mix, launch Launch) Result {
	g := d.mach.GPU
	itemsPerUnit := float64(launch.Items) / float64(d.mach.UnitsPerNode)
	if itemsPerUnit < 1 {
		itemsPerUnit = 1
	}
	warps := itemsPerUnit / float64(g.WarpSize)

	// Thread instructions: arithmetic + memory + control, inflated by
	// divergence (divergent warps execute both paths).
	instPerItem := mix.Flops + mix.Loads + mix.Stores + mix.IntOps +
		mix.Branches + 2 + 6*mix.Atomics
	divFactor := 1 + mix.Divergence
	threadInst := instPerItem * itemsPerUnit * divFactor
	warpInst := threadInst / float64(g.WarpSize)

	// Memory transactions per level.
	spw := d.sectorsPerWarpAccess(mix.Pattern)
	l1Load := mix.Loads * warps * spw
	l1Store := mix.Stores * warps * spw
	l1Hit, l2Hit := d.hitRates(mix)
	l2Read := l1Load * (1 - l1Hit)
	l2Write := l1Store                                  // writes are write-through to L2 on these parts
	l2Atom := mix.Atomics * warps * float64(g.WarpSize) // uncoalesced RMW
	dramRead := l2Read * (1 - l2Hit)
	dramWrite := l2Write * (1 - l2Hit*0.6)

	// Occupancy from block size: very small blocks underfill SMs; very
	// large blocks lose scheduling slack.
	occ := occupancy(launch.BlockSize, g)

	// Device utilization: kernels whose parallel loop exposes fewer
	// threads than the device needs to saturate (row-parallel matvecs)
	// run at a fraction of every throughput ceiling. Latency hiding
	// needs ~8 resident warps per SM for compute, ~6 for bandwidth.
	threadsPerUnit := itemsPerUnit
	if mix.ParallelWork > 0 {
		threadsPerUnit = mix.ParallelWork
	}
	availWarps := threadsPerUnit / float64(g.WarpSize)
	utilComp := math.Min(1, availWarps/(float64(g.SMs)*8))
	utilMem := math.Min(1, availWarps/(float64(g.SMs)*6))

	// Time per launch: the binding resource. The FP ceiling is
	// calibrated to the achieved fraction of Table II's probe; the DRAM
	// ceiling to the achieved TRIAD bandwidth.
	issueTime := warpInst / (g.MaxWarpGIPS * 1e9 * occ * utilComp)
	// The calibrated achieved fraction comes from the tuned GEMM probe;
	// generic kernels reach slightly under half of it unless they
	// declare their own efficiency (the probe itself declares 1).
	fpEff := d.mach.AchievedFlopsFrac * 0.45
	if mix.GPUFlopEff > 0 {
		fpEff = d.mach.AchievedFlopsFrac * mix.GPUFlopEff
		if fpEff > 0.8 {
			fpEff = 0.8 // never beyond ~80% of theoretical peak
		}
	}
	fpTime := mix.Flops * itemsPerUnit / (d.mach.PeakTFLOPSUnit * 1e12 * fpEff * utilComp)
	l1Time := (l1Load + l1Store) / (g.L1GTXNs * 1e9)
	l2Time := (l2Read + l2Write + l2Atom) / (g.L2GTXNs * 1e9)
	dramSectorsPerSec := d.mach.PeakBWTBsUnit * 1e12 * d.mach.AchievedBWFrac /
		float64(g.SectorBytes)
	if ceil := g.DRAMGTXNs * 1e9; dramSectorsPerSec > ceil {
		dramSectorsPerSec = ceil // stay on or below the roofline diagonal
	}
	// Bandwidth also needs resident warps for latency hiding: low
	// occupancy tunings lose a slice of achievable DRAM throughput.
	dramTime := (dramRead + dramWrite) / (dramSectorsPerSec * utilMem * (0.55 + 0.45*occ))
	atomTime := 0.0
	if mix.Atomics > 0 {
		conflictFactor := 1.0
		if mix.Pattern == kernels.AccessUnit && mix.WorkingSetBytes < 1024 {
			// All threads hammer a handful of addresses.
			conflictFactor = 24
		}
		atomTime = mix.Atomics * itemsPerUnit * conflictFactor /
			(float64(g.SMs) * g.AtomicThroughpt * g.ClockGHz * 1e9)
	}

	launches := mix.LaunchesPerRep
	if launches <= 0 {
		launches = 1
	}
	kernelTime := math.Max(math.Max(issueTime, fpTime),
		math.Max(math.Max(l1Time, l2Time), math.Max(dramTime, atomTime)))
	// Work splits across launches; overhead multiplies with them.
	launchOverhead := g.LaunchOverhead * 1e-6 * launches
	total := kernelTime + launchOverhead

	bottleneck := "issue"
	best := issueTime
	for _, c := range []struct {
		n string
		t float64
	}{{"fp", fpTime}, {"l1", l1Time}, {"l2", l2Time}, {"dram", dramTime}, {"atomic", atomTime}} {
		if c.t > best {
			best, bottleneck = c.t, c.n
		}
	}
	if launchOverhead > best {
		bottleneck = "launch"
	}

	if mix.MPIFraction > 0 && mix.MPIFraction < 1 {
		total = total / (1 - mix.MPIFraction)
	}

	return Result{
		Counters: Counters{
			ThreadInstExecuted: threadInst,
			L1GlobalLoad:       l1Load,
			L1GlobalStore:      l1Store,
			L2Read:             l2Read,
			L2Write:            l2Write,
			L2Atomic:           l2Atom,
			DRAMRead:           dramRead,
			DRAMWrite:          dramWrite,
			TimeSec:            total,
		},
		SecondsPerRep: total,
		Occupancy:     occ,
		Bottleneck:    bottleneck,
	}
}

func occupancy(block int, g *machine.GPUParams) float64 {
	if block <= 0 {
		block = 256
	}
	switch {
	case block < 64:
		return 0.45
	case block < 128:
		return 0.80
	case block < 256:
		return 0.95
	case block <= 512:
		return 1.0
	case block <= 1024:
		return 0.90
	default:
		return 0.60
	}
}

// RooflinePoint is one kernel's coordinates on the instruction roofline of
// one cache level (Ding & Williams): x = warp instructions per transaction,
// y = warp GIPS.
type RooflinePoint struct {
	Intensity float64 // warp instructions per transaction
	GIPS      float64 // 1e9 warp instructions per second
}

// Roofline converts a modeled result into its three roofline points, in
// L1, L2, HBM order.
func (d *Device) Roofline(r Result) []RooflinePoint {
	w := r.Counters.WarpInst(d.mach.GPU.WarpSize)
	t := r.Counters.TimeSec
	if t <= 0 {
		t = 1e-12
	}
	gips := w / t / 1e9
	pts := make([]RooflinePoint, 0, 3)
	for _, txn := range []float64{r.Counters.L1Transactions(), r.Counters.L2Transactions(), r.Counters.DRAMTransactions()} {
		if txn <= 0 {
			txn = 1
		}
		pts = append(pts, RooflinePoint{Intensity: w / txn, GIPS: gips})
	}
	return pts
}

// Ceilings returns the device's roofline ceilings: the peak warp GIPS and
// the per-level transaction bandwidth diagonals in GTXN/s.
func (d *Device) Ceilings() (maxGIPS float64, gtxns map[string]float64) {
	g := d.mach.GPU
	return g.MaxWarpGIPS, map[string]float64{
		"L1":  g.L1GTXNs,
		"L2":  g.L2GTXNs,
		"HBM": g.DRAMGTXNs,
	}
}
