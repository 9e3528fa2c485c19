// Command benchgate is the CI regression gate for the query engine and
// the portability study. It parses `go test -bench` output, computes
// ratio-based health numbers, compares them against a checked-in
// baseline, and emits a machine-readable record.
//
// The default mode gates the thicket sweep benchmarks (engine-vs-legacy
// speedup, BENCH_query.json). With -portability it instead gates the
// BenchmarkPortability results: per kernel, the paired RAJA_Seq-vs-
// Base_Seq wall-time ratio (its raja/base metric, median over -count
// runs) must not regress more than the baseline tolerance
// (BENCH_portability.json).
//
// The gate is ratio-based on purpose: BenchmarkGroupStatsSweep (the
// vectorized engine) and BenchmarkGroupStatsSweepLegacy (the preserved
// row-at-a-time reference workload, serial) run in the same process on
// the same corpus, so their ratio cancels out host speed and only a
// genuine engine regression moves it. Absolute nanosecond thresholds
// would flap with every CI hardware change; the ratio holds anywhere.
//
// Usage:
//
//	go test -run '^$' -bench 'GroupStatsSweep|QueryCached' -benchtime 1000x -count 3 ./internal/thicket/ | \
//	  benchgate -baseline internal/thicket/testdata/bench_baseline.json -out BENCH_query.json
//
// With -count > 1 the query gate uses the minimum ns/op per benchmark —
// the least noisy estimate of the true cost on a shared CI host.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Baseline is the checked-in acceptance floor the gate enforces.
type Baseline struct {
	// SweepSpeedupVsLegacy is the recorded engine-vs-legacy ratio of the
	// uncached grouped-aggregation sweep.
	SweepSpeedupVsLegacy float64 `json:"sweep_speedup_vs_legacy"`
	// TolerancePct is how far below the recorded ratio a run may land
	// before the gate fails (benchmarking noise allowance).
	TolerancePct float64 `json:"tolerance_pct"`
	// CachedQueryMaxNs bounds a cache-served sweep pass; the engine's
	// contract is sub-millisecond cached queries.
	CachedQueryMaxNs float64 `json:"cached_query_max_ns"`
}

// Report is the BENCH_query.json payload.
type Report struct {
	SweepNs       float64  `json:"groupstats_sweep_ns"`
	LegacySweepNs float64  `json:"groupstats_sweep_legacy_ns"`
	CachedNs      float64  `json:"query_cached_ns"`
	SweepSpeedup  float64  `json:"sweep_speedup_vs_legacy"`
	Baseline      Baseline `json:"baseline"`
	Pass          bool     `json:"pass"`
	Failures      []string `json:"failures,omitempty"`
}

// benchRow matches one `go test -bench` result row and the "value unit"
// pairs after its iteration count, e.g.
//
//	BenchmarkGroupStatsSweep-8   1000   2888039 ns/op   433618 B/op ...
//	BenchmarkPortability/Stream_TRIAD-2   200   8555478 ns/op   4286720 base_seq_ns/op   0.9995 raja/base ...
//
// Sub-benchmark names keep their slash-separated path, e.g.
// BenchmarkPortability/Stream_TRIAD; the -GOMAXPROCS suffix is dropped.
var (
	benchRow   = regexp.MustCompile(`^(Benchmark[\w/]+?)(?:-\d+)?\s+\d+\s+(.*)$`)
	metricPair = regexp.MustCompile(`(\S+) (\S+)`)
)

// parseMetrics extracts every reported value per benchmark name and
// unit from -bench output, in input order (one value per -count run).
func parseMetrics(r io.Reader) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchRow.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		units := out[m[1]]
		if units == nil {
			units = map[string][]float64{}
			out[m[1]] = units
		}
		for _, p := range metricPair.FindAllStringSubmatch(m[2], -1) {
			v, err := strconv.ParseFloat(p[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s in %q: %w", p[2], sc.Text(), err)
			}
			units[p[2]] = append(units[p[2]], v)
		}
	}
	return out, sc.Err()
}

// parseBench extracts min ns/op per benchmark name from -bench output.
func parseBench(r io.Reader) (map[string]float64, error) {
	rows, err := parseMetrics(r)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for name, units := range rows {
		if ns := units["ns/op"]; len(ns) > 0 {
			out[name] = slices.Min(ns)
		}
	}
	return out, nil
}

// gate builds the report and the list of failures from parsed results.
func gate(results map[string]float64, bl Baseline) Report {
	rep := Report{Baseline: bl}
	var missing []string
	get := func(name string) float64 {
		ns, ok := results[name]
		if !ok {
			missing = append(missing, name)
		}
		return ns
	}
	rep.SweepNs = get("BenchmarkGroupStatsSweep")
	rep.LegacySweepNs = get("BenchmarkGroupStatsSweepLegacy")
	rep.CachedNs = get("BenchmarkQueryCached")
	if len(missing) > 0 {
		rep.Failures = append(rep.Failures, fmt.Sprintf("missing benchmarks in input: %v", missing))
		return rep
	}
	rep.SweepSpeedup = rep.LegacySweepNs / rep.SweepNs

	floor := bl.SweepSpeedupVsLegacy * (1 - bl.TolerancePct/100)
	if rep.SweepSpeedup < floor {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"sweep speedup %.2fx is below the gate floor %.2fx (baseline %.2fx - %.0f%% tolerance)",
			rep.SweepSpeedup, floor, bl.SweepSpeedupVsLegacy, bl.TolerancePct))
	}
	if rep.CachedNs > bl.CachedQueryMaxNs {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"cached query %.0f ns exceeds the %.0f ns bound",
			rep.CachedNs, bl.CachedQueryMaxNs))
	}
	rep.Pass = len(rep.Failures) == 0
	return rep
}

// PortBaseline is the checked-in portability acceptance floor: the
// recorded RAJA_Seq/Base_Seq wall-time ratio per kernel, plus the
// regression allowance.
type PortBaseline struct {
	// TolerancePct is how far above its recorded ratio a kernel may
	// land before the gate fails (default guard: 10%).
	TolerancePct float64 `json:"tolerance_pct"`
	// Kernels maps full kernel names to their recorded ratios.
	Kernels map[string]PortKernelBaseline `json:"kernels"`
}

// PortKernelBaseline is one kernel's recorded RAJA_Seq/Base_Seq ratio.
type PortKernelBaseline struct {
	Ratio float64 `json:"ratio"`
}

// PortKernelReport is one kernel's measured portability numbers.
type PortKernelReport struct {
	BaseNs float64 `json:"base_seq_ns"`
	RAJANs float64 `json:"raja_seq_ns"`
	Ratio  float64 `json:"ratio"`
}

// PortReport is the BENCH_portability.json payload.
type PortReport struct {
	Kernels  map[string]PortKernelReport `json:"kernels"`
	Baseline PortBaseline                `json:"baseline"`
	Pass     bool                        `json:"pass"`
	Failures []string                    `json:"failures,omitempty"`
}

// gatePortability builds the portability report from parseMetrics
// output. The gate is ratio-based for the same reason the query gate is,
// and paired: each BenchmarkPortability iteration runs RAJA_Seq and
// Base_Seq back to back on the same arrays and reports the median of the
// pairs' time ratios as raja/base, so host speed and drift cancel; only
// a genuine abstraction-overhead regression moves it. With -count > 1
// each number is the median over runs. A kernel the benchmark times but
// the baseline lacks fails too: otherwise it would pass ungated.
func gatePortability(results map[string]map[string][]float64, bl PortBaseline) PortReport {
	rep := PortReport{Kernels: map[string]PortKernelReport{}, Baseline: bl}
	var timed []string
	for name := range results {
		if kernel, ok := strings.CutPrefix(name, "BenchmarkPortability/"); ok {
			timed = append(timed, kernel)
		}
	}
	slices.Sort(timed)
	for _, kernel := range timed {
		if _, ok := bl.Kernels[kernel]; !ok {
			rep.Failures = append(rep.Failures, kernel+": no baseline entry")
		}
	}
	for name, kb := range bl.Kernels {
		units := results["BenchmarkPortability/"+name]
		ratios := units["raja/base"]
		if len(ratios) == 0 {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"%s: missing raja/base in benchmark rows", name))
			continue
		}
		kr := PortKernelReport{
			BaseNs: median(units["base_seq_ns/op"]),
			RAJANs: median(units["raja_seq_ns/op"]),
			Ratio:  median(ratios),
		}
		rep.Kernels[name] = kr
		ceil := kb.Ratio * (1 + bl.TolerancePct/100)
		if kr.Ratio > ceil {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"%s: RAJA/Base ratio %.2fx exceeds the gate ceiling %.2fx (baseline %.2fx + %.0f%% tolerance)",
				name, kr.Ratio, ceil, kb.Ratio, bl.TolerancePct))
		}
	}
	rep.Pass = len(rep.Failures) == 0
	return rep
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runPortability is the -portability entry point: parse, gate, report.
func runPortability(in io.Reader, baselinePath, outPath string, stdout, stderr io.Writer) int {
	blBytes, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	var bl PortBaseline
	if err := json.Unmarshal(blBytes, &bl); err != nil {
		fmt.Fprintf(stderr, "benchgate: baseline %s: %v\n", baselinePath, err)
		return 2
	}
	results, err := parseMetrics(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	rep := gatePortability(results, bl)
	repBytes, _ := json.MarshalIndent(rep, "", "  ")
	repBytes = append(repBytes, '\n')
	if outPath != "" {
		if err := os.WriteFile(outPath, repBytes, 0o644); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
	}
	stdout.Write(repBytes)
	if !rep.Pass {
		for _, f := range rep.Failures {
			fmt.Fprintf(stderr, "benchgate: FAIL: %s\n", f)
		}
		return 1
	}
	worst := 0.0
	for _, kr := range rep.Kernels {
		if kr.Ratio > worst {
			worst = kr.Ratio
		}
	}
	fmt.Fprintf(stderr, "benchgate: PASS: %d kernels gated, worst RAJA/Base ratio %.2fx\n",
		len(rep.Kernels), worst)
	return 0
}

func run(in io.Reader, baselinePath, outPath string, stdout, stderr io.Writer) int {
	blBytes, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	var bl Baseline
	if err := json.Unmarshal(blBytes, &bl); err != nil {
		fmt.Fprintf(stderr, "benchgate: baseline %s: %v\n", baselinePath, err)
		return 2
	}
	results, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	rep := gate(results, bl)
	repBytes, _ := json.MarshalIndent(rep, "", "  ")
	repBytes = append(repBytes, '\n')
	if outPath != "" {
		if err := os.WriteFile(outPath, repBytes, 0o644); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
	}
	stdout.Write(repBytes)
	if !rep.Pass {
		for _, f := range rep.Failures {
			fmt.Fprintf(stderr, "benchgate: FAIL: %s\n", f)
		}
		return 1
	}
	fmt.Fprintf(stderr, "benchgate: PASS: sweep %.2fx vs legacy, cached %.0f ns\n",
		rep.SweepSpeedup, rep.CachedNs)
	return 0
}

func main() {
	portability := flag.Bool("portability", false,
		"gate BenchmarkPortability results (RAJA-vs-Base ratios) instead of the query sweep")
	baseline := flag.String("baseline", "",
		"path to the checked-in baseline JSON (default depends on mode)")
	out := flag.String("out", "", "path to write the report JSON (default depends on mode; '' after explicit set = stdout only)")
	flag.Parse()

	blPath, outPath := *baseline, *out
	outSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})
	if blPath == "" {
		if *portability {
			blPath = "testdata/portability_baseline.json"
		} else {
			blPath = "internal/thicket/testdata/bench_baseline.json"
		}
	}
	if outPath == "" && !outSet {
		if *portability {
			outPath = "BENCH_portability.json"
		} else {
			outPath = "BENCH_query.json"
		}
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	if *portability {
		os.Exit(runPortability(in, blPath, outPath, os.Stdout, os.Stderr))
	}
	os.Exit(run(in, blPath, outPath, os.Stdout, os.Stderr))
}
