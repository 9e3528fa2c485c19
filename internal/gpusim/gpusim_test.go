package gpusim

import (
	"math"
	"testing"

	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
)

func v100() *Device {
	d, err := NewDevice(machine.P9V100())
	if err != nil {
		panic(err)
	}
	return d
}

func mi250x() *Device {
	d, err := NewDevice(machine.EPYCMI250X())
	if err != nil {
		panic(err)
	}
	return d
}

func streamMix() kernels.Mix {
	return kernels.Mix{
		Flops: 2, Loads: 2, Stores: 1,
		Pattern:         kernels.AccessUnit,
		WorkingSetBytes: 768e6,
	}
}

func TestNewDeviceRejectsCPU(t *testing.T) {
	if _, err := NewDevice(machine.SPRDDR()); err == nil {
		t.Error("NewDevice must reject CPU machines")
	}
}

func TestStreamKernelIsDRAMBound(t *testing.T) {
	r := v100().Run(streamMix(), Launch{Items: 32_000_000, BlockSize: 256})
	if r.Bottleneck != "dram" {
		t.Errorf("stream bottleneck = %s, want dram", r.Bottleneck)
	}
	if r.SecondsPerRep <= 0 {
		t.Error("time must be positive")
	}
}

func TestCoalescingReducesTransactions(t *testing.T) {
	d := v100()
	unit := streamMix()
	random := streamMix()
	random.Pattern = kernels.AccessRandom
	ru := d.Run(unit, Launch{Items: 1 << 20, BlockSize: 256})
	rr := d.Run(random, Launch{Items: 1 << 20, BlockSize: 256})
	if ru.Counters.L1GlobalLoad >= rr.Counters.L1GlobalLoad {
		t.Errorf("coalesced L1 loads %v !< random %v",
			ru.Counters.L1GlobalLoad, rr.Counters.L1GlobalLoad)
	}
	// A fully coalesced warp-wide double access is 8 sectors on a
	// 32-thread warp; random is 32: a 4x ratio.
	ratio := rr.Counters.L1GlobalLoad / ru.Counters.L1GlobalLoad
	if math.Abs(ratio-4) > 0.5 {
		t.Errorf("random/coalesced transaction ratio = %.2f, want ~4", ratio)
	}
}

func TestCacheHierarchyConservation(t *testing.T) {
	// Transactions must not grow as they move down the hierarchy.
	for _, mix := range []kernels.Mix{
		streamMix(),
		{Flops: 2, Loads: 2, Stores: 0.01, Pattern: kernels.AccessUnit,
			Reuse: 0.95, WorkingSetBytes: 4e6},
		{Flops: 1, Loads: 3, Stores: 1, Pattern: kernels.AccessRandom,
			WorkingSetBytes: 2e9},
	} {
		r := v100().Run(mix, Launch{Items: 1 << 22, BlockSize: 256})
		l1 := r.Counters.L1GlobalLoad
		l2 := r.Counters.L2Read
		dr := r.Counters.DRAMRead
		if l2 > l1*(1+1e-9) || dr > l2*(1+1e-9) {
			t.Errorf("read transactions grew down-hierarchy: L1=%v L2=%v DRAM=%v", l1, l2, dr)
		}
	}
}

func TestReuseLowersDRAMTraffic(t *testing.T) {
	d := v100()
	noReuse := streamMix()
	cached := streamMix()
	cached.Reuse = 0.9
	cached.WorkingSetBytes = 1e6 // fits in L2
	r0 := d.Run(noReuse, Launch{Items: 1 << 22, BlockSize: 256})
	r1 := d.Run(cached, Launch{Items: 1 << 22, BlockSize: 256})
	if r1.Counters.DRAMRead >= r0.Counters.DRAMRead {
		t.Errorf("cached DRAM reads %v !< streaming %v",
			r1.Counters.DRAMRead, r0.Counters.DRAMRead)
	}
}

func TestMI250XFasterThanV100ForStreaming(t *testing.T) {
	// Paper Fig 9: the MI250X node has ~3.1x the V100 node's achieved
	// bandwidth, so memory-bound kernels run proportionally faster.
	mix := streamMix()
	launch := Launch{Items: 32_000_000, BlockSize: 256}
	tv := v100().Run(mix, launch).SecondsPerRep
	ta := mi250x().Run(mix, launch).SecondsPerRep
	if ta >= tv {
		t.Errorf("MI250X time %v !< V100 time %v", ta, tv)
	}
	speedup := tv / ta
	if speedup < 1.5 || speedup > 6 {
		t.Errorf("MI250X/V100 stream speedup = %.2f, want within [1.5, 6]", speedup)
	}
}

func TestAtomicHotspotSerializes(t *testing.T) {
	d := v100()
	atomicMix := kernels.Mix{
		Flops: 2, Loads: 0, Stores: 0, Atomics: 1,
		Pattern: kernels.AccessUnit, WorkingSetBytes: 8,
	}
	r := d.Run(atomicMix, Launch{Items: 1 << 22, BlockSize: 256})
	if r.Bottleneck != "atomic" {
		t.Errorf("single-address atomic kernel bottleneck = %s, want atomic", r.Bottleneck)
	}
	spread := atomicMix
	spread.WorkingSetBytes = 64e6
	rs := d.Run(spread, Launch{Items: 1 << 22, BlockSize: 256})
	if rs.SecondsPerRep >= r.SecondsPerRep {
		t.Error("spread atomics must be faster than a single-address hotspot")
	}
}

func TestLaunchOverheadDominatesManySmallLaunches(t *testing.T) {
	d := v100()
	mix := streamMix()
	mix.LaunchesPerRep = 200 // many tiny pack kernels, HALO_PACKING-like
	small := d.Run(mix, Launch{Items: 1 << 12, BlockSize: 256})
	if small.Bottleneck != "launch" {
		t.Errorf("many-launch small kernel bottleneck = %s, want launch", small.Bottleneck)
	}
	fused := streamMix()
	fused.LaunchesPerRep = 2 // workgroup-fused equivalent
	rf := d.Run(fused, Launch{Items: 1 << 12, BlockSize: 256})
	if rf.SecondsPerRep >= small.SecondsPerRep {
		t.Error("fused launches must beat many small launches")
	}
}

func TestOccupancyTuningShape(t *testing.T) {
	d := v100()
	// Issue-bound mix (integer-heavy) so occupancy, not the FP ceiling,
	// limits throughput.
	mix := kernels.Mix{Flops: 2, IntOps: 60, Loads: 2, Stores: 1, Reuse: 0.8,
		Pattern: kernels.AccessUnit, WorkingSetBytes: 8e6}
	t32 := d.Run(mix, Launch{Items: 1 << 24, BlockSize: 32}).SecondsPerRep
	t256 := d.Run(mix, Launch{Items: 1 << 24, BlockSize: 256}).SecondsPerRep
	if t256 >= t32 {
		t.Errorf("block 256 (%v) must beat block 32 (%v) for compute kernels", t256, t32)
	}
}

func TestRooflinePoints(t *testing.T) {
	d := v100()
	r := d.Run(streamMix(), Launch{Items: 1 << 22, BlockSize: 256})
	pts := d.Roofline(r)
	if len(pts) != 3 {
		t.Fatalf("got %d roofline points, want 3 (L1, L2, HBM)", len(pts))
	}
	names := []string{"L1", "L2", "HBM"}
	levels := map[string]RooflinePoint{}
	for i, p := range pts {
		if p.Intensity <= 0 || p.GIPS <= 0 {
			t.Errorf("point %+v not positive", p)
		}
		levels[names[i]] = p
	}
	// Fewer transactions at lower levels => higher intensity.
	if !(levels["HBM"].Intensity >= levels["L2"].Intensity &&
		levels["L2"].Intensity >= levels["L1"].Intensity) {
		t.Errorf("intensity must grow down-hierarchy: %+v", levels)
	}
	// No kernel exceeds the device ceilings.
	maxGIPS, gtxns := d.Ceilings()
	for i, p := range pts {
		if p.GIPS > maxGIPS*1.001 {
			t.Errorf("%s GIPS %.1f exceeds ceiling %.1f", names[i], p.GIPS, maxGIPS)
		}
		if bw := gtxns[names[i]]; p.GIPS > p.Intensity*bw*1.001 {
			t.Errorf("%s point above bandwidth diagonal", names[i])
		}
	}
}

func TestCountersMapMatchesTableIV(t *testing.T) {
	names := MetricNames()
	if len(names) != 12 {
		t.Fatalf("Table IV metric list has %d entries, want 12", len(names))
	}
	r := v100().Run(streamMix(), Launch{Items: 1 << 20, BlockSize: 256})
	m := r.Counters.Map()
	for _, n := range names {
		if _, ok := m[n]; !ok {
			t.Errorf("counter map missing Table IV metric %s", n)
		}
	}
	if got := r.Counters.WarpInst(32) * 32; math.Abs(got-r.Counters.ThreadInstExecuted) > 1 {
		t.Error("WarpInst inconsistent with thread instructions")
	}
}
