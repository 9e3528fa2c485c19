// Command perfbench is the repository's end-to-end benchmark. It times the
// whole pipeline — plan, execute, write profiles and WAL, compose with
// thicket, query — on one of four workloads, checks the outputs, and
// prints one JSON result line last on standard output.
//
// An untraced run (-trace 0) reports the end-to-end metrics, each a
// median over the iterations of one run. A traced run (-trace 1) records
// a span around every call the harness makes into the program, then runs
// a layer pass, and reports the per-layer metrics, each layer's self
// time, the time no layer accounts for and the tracing overhead.
//
// perfbench/run.py builds this command and the rajaperf CLI from source
// and runs it; see perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// defaultSeed is the seed a run uses when -seed is not given.
const defaultSeed = 1

// bench is the state shared by one run's workload, loops and layer pass.
type bench struct {
	name     string
	rng      *rand.Rand
	dir      string // scratch directory for campaign outputs, removed at exit
	nproc    int
	rajaperf string
	seconds  time.Duration
	cond     *conditions
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "host-exec":
		return &hostExec{}, nil
	case "model-sweep":
		return &modelSweep{}, nil
	case "analyze":
		return &analyze{}, nil
	case "fabric-sweep":
		return &fabricSweep{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want host-exec, model-sweep, analyze or fabric-sweep)", name)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wname    = flag.String("workload", "", "workload: host-exec, model-sweep, analyze or fabric-sweep")
		seed     = flag.Int64("seed", defaultSeed, "seed permuting kernel, plan-axis and question order")
		seconds  = flag.Int("seconds", 10, "measurement time of one run")
		traceF   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		rajaperf = flag.String("rajaperf", "", "path of the rajaperf binary (fabric-sweep and the layer pass)")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for scratch outputs and traces")
		commit   = flag.String("commit", "unknown", "commit or source-tree identity stamped into the result")
	)
	flag.Parse()
	seedGiven := false
	flag.Visit(func(f *flag.Flag) { seedGiven = seedGiven || f.Name == "seed" })

	w, err := newWorkload(*wname)
	if err == nil && (*traceF != 0 && *traceF != 1) {
		err = errors.New("-trace must be 0 or 1")
	}
	if err == nil && *seconds < 1 {
		err = errors.New("-seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		name:     *wname,
		rng:      rand.New(rand.NewSource(*seed)),
		dir:      dir,
		nproc:    runtime.NumCPU(),
		rajaperf: *rajaperf,
		seconds:  time.Duration(*seconds) * time.Second,
		cond:     newConditions(*wname, *seed, seedGiven, *traceF == 1, *commit, dir, *seconds, setups),
	}
	var res *result
	if *traceF == 1 {
		res, err = tracedRun(b, w, filepath.Join(*workdir, "traces"))
	} else {
		res, err = measuredRun(b, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", k)
			return 1
		}
	}
	b.cond.Plan = w.plan()
	cj, _ := json.Marshal(b.cond)
	fmt.Printf("conditions %s\n", cj)
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(rj))
	return 0
}

// warnf reports a failed check on standard error; the first few only.
func warnf(format string, args ...any) {
	if warnings.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

var warnings atomic.Int32

// usage is a snapshot of the process's resource counters.
type usage struct {
	alloc   uint64 // cumulative heap bytes allocated
	gcs     uint32
	pauseNS uint64
	cpu     time.Duration // user + system, this process and reaped children
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs, cpu: cpuTime()}
}

// rusage reads the resource usage of this process and of the children it
// has reaped.
func rusage() (self, kids syscall.Rusage) {
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return self, kids
}

func cpuTime() time.Duration {
	self, kids := rusage()
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// peakRSSMiB is the largest peak resident set of this process and of any
// child it has reaped, over the whole run (Linux reports ru_maxrss in
// KiB). A peak is an upper envelope: over a run's many iterations it
// settles where a single iteration's peak, set by GC timing, does not.
func peakRSSMiB() float64 {
	self, kids := rusage()
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024
}

// iterSample is one timed iteration and what it cost.
type iterSample struct {
	wall    time.Duration
	allocMB float64
	gcs     float64
	pauseMS float64
	cpuS    float64
	res     *iterResult
}

// medianOf is the median of f over the samples.
func medianOf(ss []*iterSample, f func(*iterSample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// tally counts operations and failed checks across a run.
type tally struct{ attempted, failed int }

// timedIteration resets outputs, collects garbage, then times one
// iteration and checks its outputs.
func timedIteration(b *bench, w workload, tr *tracer, iter int, t *tally) (*iterSample, error) {
	if err := w.reset(); err != nil {
		return nil, err
	}
	runtime.GC()
	u0 := readUsage()
	root := tr.begin("iteration", "harness", -1, iter)
	start := time.Now()
	r, err := w.iterate(b, tr, root, iter)
	wall := time.Since(start)
	tr.end(root)
	u1 := readUsage()
	if err != nil {
		return nil, err
	}
	failed, err := w.check(b, r)
	if err != nil {
		return nil, err
	}
	t.attempted += r.ops
	t.failed += r.failed + failed
	return &iterSample{
		wall:    wall,
		allocMB: float64(u1.alloc-u0.alloc) / (1 << 20),
		gcs:     float64(u1.gcs - u0.gcs),
		pauseMS: float64(u1.pauseNS-u0.pauseNS) / 1e6,
		cpuS:    (u1.cpu - u0.cpu).Seconds(),
		res:     r,
	}, nil
}

// setupOnce prepares fresh inputs and runs the discarded warm-up
// iteration, returning the time both took.
func setupOnce(b *bench, w workload, t *tally) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	if err := w.setup(b); err != nil {
		return 0, err
	}
	if _, err := timedIteration(b, w, nil, -1, t); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// setups is how many times an untraced run sets up; setup_s is their
// median. minIterations is the least iterations a run measures.
const (
	setups        = 3
	minIterations = 5
)

// measuredRun is the untraced run: set up several times, then iterate
// for the run's seconds and report the end-to-end metrics.
func measuredRun(b *bench, w workload) (*result, error) {
	t := &tally{}
	var setupS []float64
	for i := 0; i < setups; i++ {
		d, err := setupOnce(b, w, t)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}
	var walls, allocs, cold []float64
	start := time.Now()
	for i := 0; ; i++ {
		s, err := timedIteration(b, w, nil, i, t)
		if err != nil {
			return nil, err
		}
		walls = append(walls, s.wall.Seconds())
		allocs = append(allocs, s.allocMB)
		cold = append(cold, s.res.answers.cold.latencies...)
		// Keep going until query_p90_ms is valid: ten samples beyond it.
		if time.Since(start) >= b.seconds && len(walls) >= minIterations && beyondCount(len(cold), 0.9) >= minBeyond {
			break
		}
	}
	if err := crossCheck(b, w, t); err != nil {
		return nil, err
	}
	c := b.cond
	c.Iterations = len(walls)
	c.sample("setup_s", len(setupS), 0.5)
	c.sample("wall_s", len(walls), 0.5)
	c.sample("alloc_mb", len(allocs), 0.5)
	c.sample("query_p50_ms", len(cold), 0.5)
	c.sample("query_p90_ms", len(cold), 0.9)
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":      {median(setupS), "s"},
			"wall_s":       {median(walls), "s"},
			"alloc_mb":     {median(allocs), "MiB"},
			"peak_rss_mb":  {peakRSSMiB(), "MiB"},
			"query_p50_ms": {percentile(cold, 0.5), "ms"},
			"query_p90_ms": {percentile(cold, 0.9), "ms"},
		},
	}, nil
}

// crossCheck runs the checks that compare a workload with another path
// to the same answers once per run: fabric-sweep's modeled-metrics digest
// must equal an in-process model-sweep of the same plan and seed.
func crossCheck(b *bench, w workload, t *tally) error {
	fs, ok := w.(*fabricSweep)
	if !ok {
		return nil
	}
	ref, err := fs.referenceDigest(b)
	if err != nil {
		return err
	}
	t.attempted++
	if ref != fs.prevDigest {
		warnf("fabric-sweep: modeled metrics differ from an in-process run of the same plan")
		t.failed++
	}
	return nil
}

// pipelineLayers are the layers the harness's pipeline spans belong to;
// each gets a self_ms metric in every traced run.
var pipelineLayers = []string{"campaign", "suite", "caliper", "thicket", "frame", "cluster", "fabric"}

// tracedRun is the traced run: untraced and traced iterations alternate
// for the run's seconds, then the layer pass runs over the same inputs.
func tracedRun(b *bench, w workload, traceDir string) (*result, error) {
	t := &tally{}
	if _, err := setupOnce(b, w, t); err != nil {
		return nil, err
	}
	tr := newTracer()
	var untraced, traced []*iterSample
	start := time.Now()
	for i := 0; ; i++ {
		var s *iterSample
		var err error
		if i%2 == 0 {
			s, err = timedIteration(b, w, nil, i, t)
			untraced = append(untraced, s)
		} else {
			s, err = timedIteration(b, w, tr, i, t)
			traced = append(traced, s)
		}
		if err != nil {
			return nil, err
		}
		if time.Since(start) >= b.seconds && len(traced) >= 3 && len(untraced) >= 3 {
			break
		}
	}
	b.cond.Iterations = len(untraced) + len(traced)
	if err := crossCheck(b, w, t); err != nil {
		return nil, err
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// Attribution of the traced iterations.
	attr := attribute(tr.snapshot(), "iteration")
	var attributed []float64
	layerMS := map[string][]float64{}
	for _, a := range attr {
		attributed = append(attributed, ms(a.Attributed))
		for _, l := range pipelineLayers {
			layerMS[l] = append(layerMS[l], ms(a.Layers[l]))
		}
	}
	for _, l := range pipelineLayers {
		put("self_ms."+l, "ms", median(layerMS[l]))
	}
	wallMS := func(s *iterSample) float64 { return ms(s.wall) }
	put("trace.attributed_ms", "ms", median(attributed))
	put("trace.unattributed_ms", "ms", medianOf(untraced, wallMS)-median(attributed))
	put("trace.overhead_ms", "ms", medianOf(traced, wallMS)-medianOf(untraced, wallMS))

	// Go runtime cost per untraced iteration.
	put("go.gc_cycles", "count", medianOf(untraced, func(s *iterSample) float64 { return s.gcs }))
	put("go.gc_pause_ms", "ms", medianOf(untraced, func(s *iterSample) float64 { return s.pauseMS }))
	put("go.cpu_s", "s", medianOf(untraced, func(s *iterSample) float64 { return s.cpuS }))

	// Question latencies of every iteration's answer step.
	all := append(append([]*iterSample(nil), untraced...), traced...)
	queryMetrics(b, all, put)

	lp, err := layerPass(b, w, tr, t)
	if err != nil {
		return nil, err
	}
	for k, v := range lp {
		m[k] = v
	}

	meta := map[string]any{
		"workload": b.name, "seed": b.cond.Seed, "commit": b.cond.Commit,
		"nproc": b.cond.Nproc, "gomaxprocs": b.cond.GOMAXPROCS, "go_version": b.cond.GoVersion,
		"outdir_fs": b.cond.OutDirFS, "iterations": b.cond.Iterations,
	}
	stem := fmt.Sprintf("%s-seed%d", b.name, b.cond.Seed)
	path, err := exportTrace(traceDir, stem, b.name, tr.snapshot(), meta)
	if err != nil {
		return nil, err
	}
	report(b, m, attr, path)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// queryMetrics derives the frame and cluster metrics from the answer
// steps of the given iterations.
func queryMetrics(b *bench, ss []*iterSample, put func(string, string, float64)) {
	cold := map[string][]float64{}
	var warm []float64
	var hits, misses uint64
	rows := 0
	for _, s := range ss {
		a := s.res.answers
		for i, kind := range a.cold.kinds {
			cold[kind] = append(cold[kind], a.cold.latencies[i])
			if kind != kindWard { // Ward results are not cached
				warm = append(warm, a.warm.latencies[i]*1000)
			}
		}
		hits += a.hits
		misses += a.misses
		rows = a.rows
	}
	put("frame.query_ms.groupstats", "ms", median(cold[kindGroupStats]))
	put("frame.query_ms.speedup", "ms", median(cold[kindSpeedup]))
	put("frame.query_ms.where", "ms", median(cold[kindWhere]))
	put("cluster.ward_ms", "ms", median(cold[kindWard]))
	put("frame.cached_query_us", "us", median(warm))
	put("frame.cache_hit_ratio", "ratio", float64(hits)/float64(max(hits+misses, 1)))
	put("frame.rows", "count", float64(rows))
	b.cond.sample("frame.cached_query_us", len(warm), 0.5)
}

// report prints the traced run's attribution table to standard output.
func report(b *bench, m map[string]metric, attr map[int]iterAttribution, tracePath string) {
	fmt.Printf("traced run: workload %s, %d traced iterations, trace profile %s\n", b.name, len(attr), tracePath)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	var lines []string
	for _, l := range pipelineLayers {
		lines = append(lines, fmt.Sprintf("%s=%.1fms", l, m["self_ms."+l].Value))
	}
	fmt.Printf("self time per iteration: %s; unattributed %.1fms; tracing overhead %.1fms\n",
		strings.Join(lines, " "), m["trace.unattributed_ms"].Value, m["trace.overhead_ms"].Value)
}
