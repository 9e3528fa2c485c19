// Package kerneltest provides the conformance checks every suite kernel
// must satisfy: all implemented variants produce the same checksum, the
// analytic metrics and instruction mix are sane, and the lifecycle
// (SetUp/Run/Checksum/TearDown) behaves. Group test files call into it so
// each kernel is verified uniformly.
package kerneltest

import (
	_ "embed"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Params returns the small, fast run parameters conformance tests use.
func Params() kernels.RunParams {
	return kernels.RunParams{Size: 20_000, Reps: 2, Workers: 4, GPUBlock: 128}
}

// CheckKernel runs the full conformance suite on the named kernel.
func CheckKernel(t *testing.T, fullName string) {
	t.Helper()
	t.Run(fullName, func(t *testing.T) {
		k, err := kernels.New(fullName)
		if err != nil {
			t.Fatal(err)
		}
		checkInfo(t, k)
		checkBaseRAJABitwise(t, k.Info(), checkVariantsAgree(t, fullName))
		checkMetrics(t, k)
		checkUnsupportedVariants(t, k)
		checkGPUTunings(t, fullName)
		checkDeterminism(t, fullName)
		checkEdgeParams(t, fullName)
		checkSchedules(t, fullName)
		checkRunPool(t, fullName)
	})
}

// CheckGroup runs conformance on every registered kernel of the group.
func CheckGroup(t *testing.T, g kernels.Group) {
	t.Helper()
	found := false
	for _, name := range kernels.Names() {
		k, err := kernels.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.Info().Group != g {
			continue
		}
		found = true
		CheckKernel(t, name)
	}
	if !found {
		t.Fatalf("no kernels registered for group %s", g)
	}
}

func checkInfo(t *testing.T, k kernels.Kernel) {
	t.Helper()
	in := k.Info()
	if in.Name == "" {
		t.Error("kernel has empty name")
	}
	if in.DefaultSize <= 0 || in.DefaultReps <= 0 {
		t.Errorf("defaults not positive: size=%d reps=%d", in.DefaultSize, in.DefaultReps)
	}
	if len(in.Variants) == 0 {
		t.Error("kernel declares no variants")
	}
	if !in.HasVariant(kernels.BaseSeq) {
		t.Error("every kernel needs the Base_Seq reference variant")
	}
}

// checksums.json holds each kernel's Base_Seq checksum at Params().
// Base and RAJA variants share one loop body, so a slip in that body
// makes them agree on a wrong answer, and a kernel without a Lambda
// variant has no third implementation to catch it; the recorded
// checksum does. A change that means to alter a kernel's answer updates
// its entry.
//
//go:embed checksums.json
var goldenJSON []byte

// checkVariantsAgree verifies the Base_Seq checksum against the recorded
// one, then runs every declared variant on a fresh instance and verifies
// its checksum matches Base_Seq's. It returns each variant's checksum.
func checkVariantsAgree(t *testing.T, fullName string) map[kernels.VariantID]float64 {
	t.Helper()
	rp := Params()
	var golden map[string]float64
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatalf("checksums.json: %v", err)
	}

	ref, err := kernels.New(fullName)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetUp(rp)
	if err := ref.Run(kernels.BaseSeq, rp); err != nil {
		t.Fatalf("Base_Seq: %v", err)
	}
	want := ref.Checksum()
	ref.TearDown()
	if rec, ok := golden[fullName]; !ok {
		t.Errorf("no recorded Base_Seq checksum in checksums.json")
	} else if !kernels.ChecksumsClose(want, rec) {
		t.Errorf("Base_Seq checksum %v != recorded %v", want, rec)
	}

	sums := map[kernels.VariantID]float64{kernels.BaseSeq: want}
	for _, v := range ref.Info().Variants {
		if v == kernels.BaseSeq {
			continue
		}
		k, err := kernels.New(fullName)
		if err != nil {
			t.Fatal(err)
		}
		k.SetUp(rp)
		if err := k.Run(v, rp); err != nil {
			t.Errorf("%s: %v", v, err)
			k.TearDown()
			continue
		}
		got := k.Checksum()
		sums[v] = got
		if !kernels.ChecksumsClose(got, want) {
			t.Errorf("%s checksum %v != Base_Seq %v", v, got, want)
		}
		k.TearDown()
	}
	return sums
}

// checkBaseRAJABitwise requires variant checksums at Params() that run
// the kernel's one body over the same granules to be bit-identical:
// RAJA_Seq and Lambda_Seq to Base_Seq for every kernel, and, for kernels
// without a reduction, atomic, scan or sort feature, RAJA_OpenMP and
// Lambda_OpenMP to Base_OpenMP and RAJA_GPU to Base_GPU. The parallel
// variants of those feature kernels are exempt: their granules combine in
// arrival order, or through the portability layer's own algorithms, and
// may associate differently.
func checkBaseRAJABitwise(t *testing.T, in *kernels.Info, sums map[kernels.VariantID]float64) {
	t.Helper()
	pairs := [][2]kernels.VariantID{
		{kernels.BaseSeq, kernels.RAJASeq},
		{kernels.BaseSeq, kernels.LambdaSeq},
	}
	if !slices.ContainsFunc([]kernels.Feature{kernels.FeatReduction, kernels.FeatAtomic, kernels.FeatScan, kernels.FeatSort}, in.HasFeature) {
		pairs = append(pairs,
			[2]kernels.VariantID{kernels.BaseOpenMP, kernels.RAJAOpenMP},
			[2]kernels.VariantID{kernels.BaseOpenMP, kernels.LambdaOpenMP},
			[2]kernels.VariantID{kernels.BaseGPU, kernels.RAJAGPU})
	}
	for _, p := range pairs {
		base, okB := sums[p[0]]
		got, ok := sums[p[1]]
		if okB && ok && math.Float64bits(base) != math.Float64bits(got) {
			t.Errorf("%s checksum %v not bit-identical to %s %v", p[1], got, p[0], base)
		}
	}
}

// runOnce runs one variant on a fresh kernel instance and returns its
// checksum.
func runOnce(t *testing.T, fullName string, v kernels.VariantID, rp kernels.RunParams) (float64, bool) {
	t.Helper()
	k, err := kernels.New(fullName)
	if err != nil {
		t.Fatal(err)
	}
	defer k.TearDown()
	k.SetUp(rp)
	if err := k.Run(v, rp); err != nil {
		t.Errorf("%s (params %+v): %v", v, rp, err)
		return 0, false
	}
	return k.Checksum(), true
}

// checkDeterminism runs every variant twice on fresh instances and
// verifies the checksums repeat. Sequential variants must reproduce bit
// for bit; parallel variants may reassociate atomic floating-point
// updates between runs, so they are held to the checksum tolerance —
// tight enough that a data race or lost update still fails
// deterministically rather than flaking.
func checkDeterminism(t *testing.T, fullName string) {
	t.Helper()
	rp := Params()
	rp.Size = 8_000 // two runs per variant: keep the cost bounded
	rp.Reps = 1
	ref, err := kernels.New(fullName)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ref.Info().Variants {
		first, ok := runOnce(t, fullName, v, rp)
		if !ok {
			continue
		}
		second, ok := runOnce(t, fullName, v, rp)
		if !ok {
			continue
		}
		if v.IsSeq() {
			if first != second {
				t.Errorf("%s not deterministic: %v then %v", v, first, second)
			}
		} else if !kernels.ChecksumsClose(first, second) {
			t.Errorf("%s not repeatable: %v then %v", v, first, second)
		}
	}
}

// checkEdgeParams runs every variant at degenerate run parameters — a
// single-element problem and a problem smaller than the worker count —
// and verifies each still matches a fresh Base_Seq reference at the same
// parameters. These shapes exercise the executor's empty-chunk,
// single-lane, and workers-clamped-to-size paths inside real kernels.
func checkEdgeParams(t *testing.T, fullName string) {
	t.Helper()
	edges := []kernels.RunParams{
		{Size: 1, Reps: 1, Workers: 1, GPUBlock: 64},
		{Size: 3, Reps: 1, Workers: 8, GPUBlock: 64}, // workers > size
	}
	ref, err := kernels.New(fullName)
	if err != nil {
		t.Fatal(err)
	}
	for _, rp := range edges {
		want, ok := runOnce(t, fullName, kernels.BaseSeq, rp)
		if !ok {
			continue
		}
		for _, v := range ref.Info().Variants {
			if v == kernels.BaseSeq {
				continue
			}
			got, ok := runOnce(t, fullName, v, rp)
			if !ok {
				continue
			}
			if !kernels.ChecksumsClose(got, want) {
				t.Errorf("%s at size=%d workers=%d: checksum %v != Base_Seq %v",
					v, rp.Size, rp.Workers, got, want)
			}
		}
	}
}

// checkSchedules verifies the executor's scheduling modes are answer-
// invariant: RAJA_OpenMP must produce a Base_Seq-compatible checksum
// under static, dynamic, and guided scheduling alike.
func checkSchedules(t *testing.T, fullName string) {
	t.Helper()
	ref, err := kernels.New(fullName)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Info().HasVariant(kernels.RAJAOpenMP) {
		return
	}
	rp := Params()
	rp.Size = 8_000
	rp.Reps = 1
	want, ok := runOnce(t, fullName, kernels.BaseSeq, rp)
	if !ok {
		return
	}
	for _, sched := range []raja.Schedule{raja.ScheduleStatic, raja.ScheduleDynamic, raja.ScheduleGuided} {
		srp := rp
		srp.Schedule = sched
		got, ok := runOnce(t, fullName, kernels.RAJAOpenMP, srp)
		if !ok {
			continue
		}
		if !kernels.ChecksumsClose(got, want) {
			t.Errorf("RAJA_OpenMP schedule=%v: checksum %v != Base_Seq %v", sched, got, want)
		}
	}
}

// checkRunPool verifies every OpenMP and GPU variant executes on the
// run's own pool (RunParams.Pool): on a private, instrumented 2-lane
// pool each must record at least one scheduling granule. A variant that
// dispatches elsewhere, such as the process-wide raja.Default pool,
// records none, and would see other contention and instrumentation than
// the variants it is compared with. The 8-element GPU block gives even
// the GPU variants that block over a short outer dimension (the 2-D and
// 3-D stencils, the polybench matrices) at least two blocks, so none
// degenerates to the single-lane walk, which records no granules.
func checkRunPool(t *testing.T, fullName string) {
	t.Helper()
	// Named exception: raja.SortPairs is a sequential stable sort under
	// every policy, so Algorithm_SORTPAIRS never dispatches on a pool.
	if fullName == "Algorithm_SORTPAIRS" {
		return
	}
	ref, err := kernels.New(fullName)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ref.Info().Variants {
		if v.IsSeq() {
			continue
		}
		pool := raja.NewPool(2)
		pool.Instrument(true)
		rp := kernels.RunParams{Size: 100_000, Reps: 1, Workers: 2, GPUBlock: 8, Pool: pool}
		if _, ok := runOnce(t, fullName, v, rp); ok {
			if im := raja.ComputeImbalance(nil, pool.InstrSnapshot()); im.Granules == 0 {
				t.Errorf("%s recorded no granule on the run's pool", v)
			}
		}
		pool.Close()
	}
}

// checkGPUTunings verifies that GPU block-size tunings do not change the
// computed answer (scheduling independence).
func checkGPUTunings(t *testing.T, fullName string) {
	t.Helper()
	base, err := kernels.New(fullName)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Info().HasVariant(kernels.RAJAGPU) {
		return
	}
	var want float64
	for i, block := range []int{64, 512} {
		rp := Params()
		rp.GPUBlock = block
		k, _ := kernels.New(fullName)
		k.SetUp(rp)
		if err := k.Run(kernels.RAJAGPU, rp); err != nil {
			t.Errorf("RAJA_GPU block_%d: %v", block, err)
			k.TearDown()
			return
		}
		got := k.Checksum()
		if i == 0 {
			want = got
		} else if !kernels.ChecksumsClose(got, want) {
			t.Errorf("block_%d checksum %v != block_64 %v", block, got, want)
		}
		k.TearDown()
	}
}

func checkMetrics(t *testing.T, k kernels.Kernel) {
	t.Helper()
	rp := Params()
	k.SetUp(rp)
	defer k.TearDown()
	m := k.Metrics()
	if m.BytesRead < 0 || m.BytesWritten < 0 || m.Flops < 0 {
		t.Errorf("negative analytic metrics: %+v", m)
	}
	if m.BytesRead+m.BytesWritten+m.Flops == 0 {
		t.Error("kernel reports no work at all")
	}
	mix := k.Mix()
	if mix.Loads < 0 || mix.Stores < 0 || mix.Flops < 0 || mix.Atomics < 0 {
		t.Errorf("negative mix fields: %+v", mix)
	}
	if mix.WorkingSetBytes <= 0 {
		t.Errorf("mix must report a working set: %+v", mix)
	}
	if mix.BrMissRate < 0 || mix.BrMissRate > 1 || mix.Reuse < 0 || mix.Reuse > 1 {
		t.Errorf("mix rates out of [0,1]: %+v", mix)
	}

	// Metrics should scale with problem size for O(n) kernels.
	if k.Info().Complexity == kernels.CxN {
		big := rp
		big.Size = rp.Size * 2
		k2, _ := kernels.New(k.Info().FullName())
		k2.SetUp(big)
		m2 := k2.Metrics()
		k2.TearDown()
		if m2.BytesRead+m2.BytesWritten+m2.Flops <= m.BytesRead+m.BytesWritten+m.Flops {
			t.Error("analytic work did not grow with problem size")
		}
	}
}

func checkUnsupportedVariants(t *testing.T, k kernels.Kernel) {
	t.Helper()
	rp := Params()
	k.SetUp(rp)
	defer k.TearDown()
	for v := kernels.VariantID(0); v < kernels.NumVariants; v++ {
		if k.Info().HasVariant(v) {
			continue
		}
		err := k.Run(v, rp)
		if err == nil {
			t.Errorf("Run(%s) succeeded but variant is not declared", v)
			continue
		}
		var uns *kernels.ErrVariantUnsupported
		if !errors.As(err, &uns) {
			t.Errorf("Run(%s) error = %v, want ErrVariantUnsupported", v, err)
		}
	}
}
