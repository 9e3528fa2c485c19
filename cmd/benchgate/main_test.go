package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: rajaperf/internal/thicket
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkGroupStatsSweep       	    1000	   2888039 ns/op	  433618 B/op	     341 allocs/op
BenchmarkGroupStatsSweep       	    1000	   2705804 ns/op	  433618 B/op	     341 allocs/op
BenchmarkQueryCached           	    1000	      1906 ns/op	    2112 B/op	      32 allocs/op
BenchmarkGroupStatsSweepLegacy-4 	    1000	  14530118 ns/op	12984961 B/op	   20382 allocs/op
PASS
ok  	rajaperf/internal/thicket	22.697s
`

func TestParseBenchTakesMinAndStripsProcSuffix(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkGroupStatsSweep":       2705804,
		"BenchmarkQueryCached":           1906,
		"BenchmarkGroupStatsSweepLegacy": 14530118,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	bl := Baseline{SweepSpeedupVsLegacy: 5.0, TolerancePct: 15, CachedQueryMaxNs: 1e6}
	rep := gate(map[string]float64{
		"BenchmarkGroupStatsSweep":       3_000_000, // 4.5x: above the 4.25x floor
		"BenchmarkGroupStatsSweepLegacy": 13_500_000,
		"BenchmarkQueryCached":           2_000,
	}, bl)
	if !rep.Pass {
		t.Fatalf("expected pass, failures: %v", rep.Failures)
	}
	if rep.SweepSpeedup < 4.49 || rep.SweepSpeedup > 4.51 {
		t.Fatalf("speedup = %v", rep.SweepSpeedup)
	}
}

func TestGateFailsOnSweepRegression(t *testing.T) {
	bl := Baseline{SweepSpeedupVsLegacy: 5.0, TolerancePct: 15, CachedQueryMaxNs: 1e6}
	rep := gate(map[string]float64{
		"BenchmarkGroupStatsSweep":       4_000_000, // 3.5x: below the 4.25x floor
		"BenchmarkGroupStatsSweepLegacy": 14_000_000,
		"BenchmarkQueryCached":           2_000,
	}, bl)
	if rep.Pass || len(rep.Failures) != 1 {
		t.Fatalf("expected one failure, got pass=%v failures=%v", rep.Pass, rep.Failures)
	}
}

func TestGateFailsOnSlowCachedQuery(t *testing.T) {
	bl := Baseline{SweepSpeedupVsLegacy: 5.0, TolerancePct: 15, CachedQueryMaxNs: 1e6}
	rep := gate(map[string]float64{
		"BenchmarkGroupStatsSweep":       2_700_000,
		"BenchmarkGroupStatsSweepLegacy": 14_000_000,
		"BenchmarkQueryCached":           2e6, // 2 ms
	}, bl)
	if rep.Pass {
		t.Fatal("expected failure")
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	bl := Baseline{SweepSpeedupVsLegacy: 5.0, TolerancePct: 15, CachedQueryMaxNs: 1e6}
	rep := gate(map[string]float64{"BenchmarkGroupStatsSweep": 1}, bl)
	if rep.Pass {
		t.Fatal("expected failure on missing benchmarks")
	}
}

func TestRunEndToEndWritesReport(t *testing.T) {
	dir := t.TempDir()
	blPath := filepath.Join(dir, "baseline.json")
	outPath := filepath.Join(dir, "BENCH_query.json")
	if err := os.WriteFile(blPath, []byte(
		`{"sweep_speedup_vs_legacy": 5.0, "tolerance_pct": 15, "cached_query_max_ns": 1000000}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run(strings.NewReader(sampleBench), blPath, outPath, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.SweepSpeedup < 5 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestRunFailsOnBadBaselinePath(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(strings.NewReader(""), "/nonexistent/baseline.json", "", &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d", code)
	}
}

const samplePortBench = `goos: linux
pkg: rajaperf
BenchmarkPortability/Stream_TRIAD-1         	     200	   4200000 ns/op	   2000000 base_seq_ns/op	         1.100 raja/base	   2200000 raja_seq_ns/op
BenchmarkPortability/Stream_TRIAD-1         	     200	   4400000 ns/op	   2100000 base_seq_ns/op	         1.120 raja/base	   2300000 raja_seq_ns/op
BenchmarkPortability/Stream_TRIAD-1         	     200	   4100000 ns/op	   1950000 base_seq_ns/op	         1.080 raja/base	   2150000 raja_seq_ns/op
BenchmarkPortability/Stream_DOT             	     200	   1950000 ns/op	   1000000 base_seq_ns/op	         0.9500 raja/base	    950000 raja_seq_ns/op
PASS
ok  	rajaperf	29.8s
`

func TestParseBenchKeepsSubBenchmarkPaths(t *testing.T) {
	got, err := parseMetrics(strings.NewReader(samplePortBench))
	if err != nil {
		t.Fatal(err)
	}
	triad := got["BenchmarkPortability/Stream_TRIAD"]
	if r := triad["raja/base"]; !slices.Equal(r, []float64{1.10, 1.12, 1.08}) {
		t.Fatalf("TRIAD raja/base = %v", r)
	}
	if ns := got["BenchmarkPortability/Stream_DOT"]["raja_seq_ns/op"]; !slices.Equal(ns, []float64{950000}) {
		t.Fatalf("DOT raja_seq_ns/op = %v", ns)
	}
	mins, err := parseBench(strings.NewReader(samplePortBench))
	if err != nil {
		t.Fatal(err)
	}
	if mins["BenchmarkPortability/Stream_TRIAD"] != 4100000 {
		t.Fatalf("min TRIAD ns/op = %v", mins["BenchmarkPortability/Stream_TRIAD"])
	}
}

func portBaseline() PortBaseline {
	return PortBaseline{
		TolerancePct: 10,
		Kernels: map[string]PortKernelBaseline{
			"Stream_TRIAD": {Ratio: 1.05},
			"Stream_DOT":   {Ratio: 1.00},
		},
	}
}

func TestGatePortabilityPasses(t *testing.T) {
	results, err := parseMetrics(strings.NewReader(samplePortBench))
	if err != nil {
		t.Fatal(err)
	}
	rep := gatePortability(results, portBaseline())
	if !rep.Pass {
		t.Fatalf("expected pass, failures: %v", rep.Failures)
	}
	triad := rep.Kernels["Stream_TRIAD"]
	if triad.Ratio != 1.10 || triad.BaseNs != 2000000 || triad.RAJANs != 2200000 {
		t.Fatalf("TRIAD = %+v, want the medians over runs (ratio 1.10)", triad)
	}
}

func TestGatePortabilityFailsOnRatioRegression(t *testing.T) {
	results, err := parseMetrics(strings.NewReader(samplePortBench))
	if err != nil {
		t.Fatal(err)
	}
	bl := portBaseline()
	bl.Kernels["Stream_TRIAD"] = PortKernelBaseline{Ratio: 0.90}
	// measured 1.10 > 0.90 * 1.10 = 0.99 ceiling
	rep := gatePortability(results, bl)
	if rep.Pass || len(rep.Failures) != 1 {
		t.Fatalf("expected one failure, got pass=%v failures=%v", rep.Pass, rep.Failures)
	}
}

func TestGatePortabilityFailsOnMissingKernel(t *testing.T) {
	bl := portBaseline()
	rep := gatePortability(map[string]map[string][]float64{}, bl)
	if rep.Pass || len(rep.Failures) != 2 {
		t.Fatalf("expected two missing-kernel failures, got pass=%v failures=%v", rep.Pass, rep.Failures)
	}
}

func TestGatePortabilityFailsOnUnbaselinedKernel(t *testing.T) {
	results, err := parseMetrics(strings.NewReader(samplePortBench))
	if err != nil {
		t.Fatal(err)
	}
	bl := portBaseline()
	delete(bl.Kernels, "Stream_DOT")
	rep := gatePortability(results, bl)
	if rep.Pass || !slices.Equal(rep.Failures, []string{"Stream_DOT: no baseline entry"}) {
		t.Fatalf("expected the unbaselined DOT to fail, got pass=%v failures=%v", rep.Pass, rep.Failures)
	}
}

func TestRunPortabilityEndToEnd(t *testing.T) {
	dir := t.TempDir()
	blPath := filepath.Join(dir, "portability_baseline.json")
	outPath := filepath.Join(dir, "BENCH_portability.json")
	blBytes, _ := json.Marshal(portBaseline())
	if err := os.WriteFile(blPath, blBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := runPortability(strings.NewReader(samplePortBench), blPath, outPath, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep PortReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || len(rep.Kernels) != 2 {
		t.Fatalf("report: %+v", rep)
	}
}
