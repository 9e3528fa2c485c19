package main

// Golden tests pinning the -export csv|json output byte-for-byte: the
// regression net that holds the legacy export semantics fixed across
// engine rewires underneath package thicket. Regenerate with
//
//	go test ./cmd/rajaperf-analyze -run TestExportGolden -update
//
// only when an output change is intentional.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rajaperf/internal/caliper"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCampaign writes a small deterministic campaign directory: two
// machines x two variants, overlapping but not identical call trees,
// a metric absent on some rows, and a metadata key missing on one
// profile (the MissingKey path).
func goldenCampaign(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	specs := []struct {
		machine, variant string
		sched            string // empty = leave the key off entirely
	}{
		{"SPR-DDR", "RAJA_Seq", "static"},
		{"SPR-DDR", "RAJA_OpenMP", "dynamic"},
		{"SPR-HBM", "RAJA_Seq", "static"},
		{"SPR-HBM", "RAJA_OpenMP", ""},
	}
	kernels := []string{"Stream_TRIAD", "Basic_DAXPY", "Polybench_GEMM"}
	for i, sp := range specs {
		c := caliper.NewRecorderWith(caliper.Config{})
		c.AddMetadata("machine", sp.machine)
		c.AddMetadata("variant", sp.variant)
		if sp.sched != "" {
			c.AddMetadata("executor.schedule", sp.sched)
		}
		for k, name := range kernels {
			path := []string{"suite", name}
			c.SetMetricAt(path, "time", float64(i+1)*0.5+float64(k)*0.125)
			c.SetMetricAt(path, "count", float64(k+1))
			if k != 1 { // flops absent on the middle kernel
				c.SetMetricAt(path, "flops", float64(100*(i+1)+k))
			}
		}
		if i == 0 { // one node the other profiles lack
			c.SetMetricAt([]string{"suite", "Apps_PRESSURE"}, "time", 0.0625)
		}
		name := fmt.Sprintf("%s_%s%s", sp.machine, sp.variant, caliper.FileExt)
		if err := c.Profile().WriteFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestExportGolden(t *testing.T) {
	dir := goldenCampaign(t)
	for _, format := range []string{"csv", "json"} {
		out := t.TempDir()
		if err := run(dir, "time", 0, "", "", -1, format, out); err != nil {
			t.Fatalf("-export %s: %v", format, err)
		}
		var files []string
		if format == "csv" {
			files = []string{"metrics.csv", "metadata.csv"}
		} else {
			files = []string{"thicket.json"}
		}
		for _, name := range files {
			got, err := os.ReadFile(filepath.Join(out, name))
			if err != nil {
				t.Fatalf("-export %s wrote no %s: %v", format, name, err)
			}
			golden := filepath.Join("testdata", "golden_"+name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden %s (run with -update): %v", golden, err)
			}
			if string(got) != string(want) {
				t.Errorf("%s drifted from %s\ngot:\n%s\nwant:\n%s",
					name, golden, clip(got), clip(want))
			}
		}
	}
}

func clip(b []byte) string {
	const n = 2000
	if len(b) > n {
		return string(b[:n]) + "...(clipped)"
	}
	return string(b)
}
