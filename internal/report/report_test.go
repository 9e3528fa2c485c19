package report

import (
	"strings"
	"testing"

	"rajaperf/internal/kernels"
	_ "rajaperf/internal/kernels/basic"
	_ "rajaperf/internal/kernels/comm"
	_ "rajaperf/internal/kernels/stream"
	"rajaperf/internal/machine"
	"rajaperf/internal/raja"
	"rajaperf/internal/suite"
)

func smallConfig() Config {
	return Config{
		Kernels: []string{"Stream_TRIAD", "Stream_DOT", "Basic_DAXPY"},
		Size:    10_000, Reps: 1, Workers: 2,
	}
}

func TestRunAndTimingReport(t *testing.T) {
	rep, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	for _, res := range rep.Results {
		for _, v := range rep.Variants {
			if tm, ok := res.Times[v]; !ok || tm <= 0 {
				t.Errorf("%s %s time = %v, %v", res.Name, v, tm, ok)
			}
		}
	}
	out := rep.Timing()
	for _, frag := range []string{"Stream_TRIAD", "Base_Seq", "RAJA_OpenMP", "ms"} {
		if !strings.Contains(out, frag) {
			t.Errorf("timing report missing %q", frag)
		}
	}
}

func TestChecksumReportPasses(t *testing.T) {
	rep, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if failed := rep.FailedKernels(); len(failed) != 0 {
		t.Errorf("checksum failures: %v", failed)
	}
	out := rep.Checksums()
	if strings.Count(out, "PASS") != 3 {
		t.Errorf("expected 3 PASS rows:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("unexpected FAIL:\n%s", out)
	}
}

// TestChecksumsAreSuiteViews: each report checksum is the checksum a Host
// suite profile records for the same kernels, size, reps, workers and
// variant. Basic_DAXPY adds into its output, so a checksum read after a
// second pass differs. The sequential variants must match bit for bit;
// the parallel ones may combine Stream_DOT's partial sums in another
// order, so they are held to the checksum tolerance.
func TestChecksumsAreSuiteViews(t *testing.T) {
	cfg := smallConfig()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Variants {
		p, err := suite.Run(suite.Config{Machine: machine.Host(), Variant: v, Execute: true,
			Kernels: cfg.Kernels, SizePerNode: cfg.Size, Reps: cfg.Reps, Workers: cfg.Workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range rep.Results {
			got, want := res.Checksums[v], p.Find(res.Name).Metrics["checksum"]
			if got != want && (!v.IsOpenMP() || !kernels.ChecksumsClose(got, want)) {
				t.Errorf("%s %s: report checksum %v, suite profile %v", res.Name, v, got, want)
			}
		}
	}
}

func TestChecksumFailureDetected(t *testing.T) {
	// Tamper with a result to simulate a broken variant.
	rep, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep.Results[0].Checksums[kernels.RAJASeq] *= 1.5
	failed := rep.FailedKernels()
	if len(failed) != 1 || failed[0] != rep.Results[0].Name {
		t.Errorf("FailedKernels = %v", failed)
	}
	if !strings.Contains(rep.Checksums(), "FAIL") {
		t.Error("checksum report should flag the tampered kernel")
	}
}

func TestUnknownKernelErrors(t *testing.T) {
	_, err := Run(Config{Kernels: []string{"No_SUCH"}})
	if err == nil {
		t.Error("unknown kernel must error")
	}
}

func TestScalingStudy(t *testing.T) {
	rows, err := ScalingStudy(
		[]string{"Stream_TRIAD", "Basic_MAT_MAT_SHARED", "Comm_HALO_SENDRECV"},
		[]int{1, 2}, 200_000, 2, raja.ScheduleDefault)
	if err != nil {
		t.Fatal(err)
	}
	// HALO_SENDRECV has no RAJA_OpenMP variant and is skipped.
	if len(rows) != 2 {
		t.Fatalf("scaling rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Times[1] <= 0 || r.Times[2] <= 0 {
			t.Errorf("%s missing timings: %+v", r.Kernel, r.Times)
		}
		if r.Efficiency <= 0 {
			t.Errorf("%s efficiency = %v", r.Kernel, r.Efficiency)
		}
	}
	out := RenderScaling(rows, []int{1, 2})
	for _, frag := range []string{"Stream_TRIAD", "w=1", "w=2", "efficiency"} {
		if !strings.Contains(out, frag) {
			t.Errorf("scaling table missing %q", frag)
		}
	}
}
