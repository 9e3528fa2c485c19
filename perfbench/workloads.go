package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/thicket"
)

// Plan sizes. hostSize keeps every kernel's working set inside the 2 MiB
// per-core L2 (the largest, Apps_MATVEC_3D_STENCIL, needs about 1.7 MiB),
// so co-tenants of the shared L3 do not set host timings.
const (
	hostSize   = 8_000
	paperSize  = 32_000_000 // the paper's node problem size (Table III)
	sweepSmall = 4_000_000
)

var (
	cpuVariants = []string{"Base_Seq", "Lambda_Seq", "RAJA_Seq", "Base_OpenMP", "Lambda_OpenMP", "RAJA_OpenMP"}
	gpuVariants = []string{"Base_GPU", "RAJA_GPU"}
	sweepBlocks = []int{128, 256, 512}
	// The analyze corpus crosses machines, variants, tunings, sizes and
	// schedules into several hundred profiles.
	corpusSizes     = []int{1_000_000, 2_000_000, 4_000_000}
	corpusSchedules = []string{"static", "dynamic", "guided"}
)

// workload is one benchmark workload. Every iteration runs from plan to
// answers, closed loop: the next starts once this one's answers are in.
type workload interface {
	// setup prepares fresh inputs; the harness times it together with one
	// discarded warm-up iteration.
	setup(b *bench) error
	// reset clears the previous iteration's outputs, outside the timing.
	reset() error
	// iterate runs one iteration; only this call is timed. Spans go to tr
	// under parent (tr may be nil).
	iterate(b *bench, tr *tracer, parent, iter int) (*iterResult, error)
	// check verifies an iteration's outputs after timing and returns the
	// number of failed checks.
	check(b *bench, r *iterResult) (int, error)
	// outDir is where the last iteration's profiles are.
	outDir() string
	plan() map[string]any
}

// iterResult is what one iteration produced.
type iterResult struct {
	ops      int // operations attempted: specs run and questions asked
	failed   int // operations that failed inside the iteration
	answers  *answers
	specs    []specTiming
	campaign time.Duration // campaign.Run wall time (0 when not in process)
	// profiles are the profiles the iteration produced, where it holds
	// them in memory.
	profiles []*caliper.Profile
	extra    map[string]float64 // fabric-sweep: the CLI's fabric counters
}

// specTiming is one finished spec as Options.Progress reported it.
type specTiming struct {
	spec    campaign.RunSpec
	elapsed time.Duration
}

// kindOf names a spec's machine kind: host, cpu or gpu.
func kindOf(s campaign.RunSpec) string {
	if s.Machine == "Host" {
		return "host"
	}
	m, err := machine.ByName(s.Machine)
	if err == nil && m.Kind == machine.GPU {
		return "gpu"
	}
	return "cpu"
}

func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// crossKindExcludes drops GPU variants on CPU machines and CPU variants
// on GPU machines.
func crossKindExcludes() []string {
	var ex []string
	for _, m := range machine.Paper() {
		if m.Kind == machine.GPU {
			ex = append(ex, m.Shorthand+"_*_Seq_*", m.Shorthand+"_*_OpenMP_*")
		} else {
			ex = append(ex, m.Shorthand+"_*_GPU_*")
		}
	}
	return ex
}

func paperNames() []string {
	var ns []string
	for _, m := range machine.Paper() {
		ns = append(ns, m.Shorthand)
	}
	return ns
}

// hostPlan is the host-exec plan: the whole suite under all six CPU
// variants on the host, OpenMP at nproc workers.
func hostPlan(b *bench) campaign.Plan {
	return campaign.Plan{
		Machines: []string{"Host"},
		Variants: shuffled(b.rng, cpuVariants),
		Sizes:    []int{hostSize},
		Workers:  b.nproc,
		Kernels:  shuffled(b.rng, kernels.Names()),
		Execute:  true,
	}
}

// sweepPlan is the model-sweep plan: the four paper machines at 32M and
// one smaller size; CPU machines under the six CPU variants, GPU machines
// under Base and RAJA GPU over three block tunings. Its kernels run in the
// suite's own order, as the CLI runs them: four Apps kernels allocate
// 123/123/61/60 MiB at 32M even in model-only runs, and how close they
// fall in the order sets the peak RSS (shuffled orders moved it between
// about 290 and 445 MiB by seed; the suite's order gives about 500).
func sweepPlan(b *bench) campaign.Plan {
	return campaign.Plan{
		Machines:  shuffled(b.rng, paperNames()),
		Variants:  shuffled(b.rng, append(append([]string(nil), cpuVariants...), gpuVariants...)),
		GPUBlocks: shuffled(b.rng, sweepBlocks),
		Sizes:     shuffled(b.rng, []int{paperSize, sweepSmall}),
		Kernels:   kernels.Names(),
		Exclude:   crossKindExcludes(),
	}
}

// corpusPlan is the analyze corpus: model-only profiles across machines,
// variants, tunings, sizes and schedules.
func corpusPlan(b *bench) campaign.Plan {
	return campaign.Plan{
		Machines:  shuffled(b.rng, paperNames()),
		Variants:  shuffled(b.rng, append(append([]string(nil), cpuVariants...), gpuVariants...)),
		GPUBlocks: shuffled(b.rng, sweepBlocks),
		Sizes:     shuffled(b.rng, corpusSizes),
		Schedules: shuffled(b.rng, corpusSchedules),
		Kernels:   shuffled(b.rng, kernels.Names()),
		Exclude:   crossKindExcludes(),
	}
}

func planFacts(p campaign.Plan) map[string]any {
	specs, _ := p.Specs()
	return map[string]any{
		"specs": len(specs), "machines": p.Machines, "variants": p.Variants,
		"blocks": p.GPUBlocks, "sizes": p.Sizes, "schedules": p.Schedules,
		"kernels": len(p.Kernels), "execute": p.Execute, "workers": p.Workers,
	}
}

// runCampaign runs plan one spec at a time into dir, recording each
// finished spec, and a span per spec under the campaign span.
func runCampaign(plan campaign.Plan, dir string, retain bool, tr *tracer, parent, iter int,
	onSpec func(campaign.Event)) (*campaign.Result, []specTiming, error) {
	var mu sync.Mutex
	var specs []specTiming
	id := tr.begin("campaign.Run", "campaign", parent, iter)
	opts := campaign.Options{
		OutDir:  dir,
		Workers: 1,
		Retain:  retain,
		Progress: func(e campaign.Event) {
			now := time.Now()
			mu.Lock()
			specs = append(specs, specTiming{e.Spec, e.Elapsed})
			mu.Unlock()
			tr.add("spec:"+e.Spec.ID(), "suite", id, iter, now.Add(-e.Elapsed), now)
			if onSpec != nil {
				onSpec(e)
			}
		},
	}
	res, err := campaign.Run(context.Background(), plan, opts)
	tr.end(id)
	return res, specs, err
}

// specFailures counts specs that did not complete cleanly.
func specFailures(res *campaign.Result) int {
	n := 0
	for _, sr := range res.Specs {
		if sr.Status != campaign.StatusDone || sr.KernelsFailed > 0 {
			n++
		}
	}
	return n
}

// manifestFailures counts planned specs the directory's manifest does
// not list as done.
func manifestFailures(dir string, plan campaign.Plan) (int, error) {
	man, err := campaign.LoadManifest(dir)
	if err != nil {
		return 0, err
	}
	specs, err := plan.Specs()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, s := range specs {
		if e, ok := man.Entries[s.ID()]; !ok || e.Status != campaign.StatusDone {
			warnf("%s: manifest does not list spec %s as done", dir, s.ID())
			n++
		}
	}
	return n, nil
}

// digestCheck compares a modeled-metrics digest with the previous
// iteration's and remembers it; it returns 1 on a mismatch.
func digestCheck(prev *uint64, dg uint64) int {
	defer func() { *prev = dg }()
	if *prev != 0 && dg != *prev {
		warnf("modeled metrics differ from the previous iteration's")
		return 1
	}
	return 0
}

// modeledDigest hashes the modeled metrics of a set of profiles: each
// kernel node's metrics, keyed by spec and node. The suite root's wall
// time and all metadata (timestamps, overhead calibration) are left out.
func modeledDigest(ps []*caliper.Profile) uint64 {
	sorted := append([]*caliper.Profile(nil), ps...)
	specOf := func(p *caliper.Profile) string { s, _ := p.Metadata["campaign.spec"].(string); return s }
	sort.Slice(sorted, func(i, j int) bool { return specOf(sorted[i]) < specOf(sorted[j]) })
	d := newDigest()
	for _, p := range sorted {
		d.str(specOf(p))
		recs := append([]caliper.Record(nil), p.Records...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].PathKey() < recs[j].PathKey() })
		for _, r := range recs {
			if len(r.Path) < 2 {
				continue
			}
			d.str(r.PathKey())
			for _, m := range sortedKeys(r.Metrics) {
				if m == "wall_time" {
					continue
				}
				d.str(m)
				d.f64(r.Metrics[m])
			}
		}
	}
	return d.sum()
}

// answerCheck compares an iteration's answers with its warm pass and
// with the previous iteration's, returning the failed comparisons and
// remembering these answers for the next iteration.
func answerCheck(prev *[]uint64, a *answers) int {
	failed := a.mismatches
	if failed > 0 {
		warnf("%d answers differ between the cold and warm pass", failed)
	}
	if *prev != nil {
		if n := sameAnswers(*prev, a.cold.digests); n > 0 {
			warnf("%d answers differ from the previous iteration's", n)
			failed += n
		}
	}
	*prev = a.cold.digests
	return failed
}

// ---- host-exec -----------------------------------------------------------

type hostExec struct {
	dir  string
	p    campaign.Plan
	qs   []question
	prev []uint64
}

func (w *hostExec) plan() map[string]any { return planFacts(w.p) }
func (w *hostExec) outDir() string       { return w.dir }
func (w *hostExec) reset() error         { return os.RemoveAll(w.dir) }

func (w *hostExec) setup(b *bench) error {
	w.dir = filepath.Join(b.dir, "host-exec")
	if w.p.Machines == nil {
		w.p = hostPlan(b)
	}
	w.qs, w.prev = nil, nil
	return w.reset()
}

func (w *hostExec) iterate(b *bench, tr *tracer, parent, iter int) (*iterResult, error) {
	res, specs, err := runCampaign(w.p, w.dir, true, tr, parent, iter, nil)
	if err != nil {
		return nil, err
	}
	r := &iterResult{ops: len(res.Specs), failed: specFailures(res), specs: specs, campaign: res.Elapsed}
	for _, sr := range res.Specs {
		if sr.Profile != nil {
			r.profiles = append(r.profiles, sr.Profile)
		}
	}
	var t *thicket.Thicket
	tr.region("thicket.FromProfiles", "thicket", parent, iter, func() { t = thicket.FromProfiles(r.profiles) })
	if w.qs == nil {
		if w.qs, err = questionSet(t, b.rng); err != nil {
			return nil, err
		}
	}
	if r.answers, err = answerAll(w.qs, t, tr, parent, iter); err != nil {
		return nil, err
	}
	r.ops += len(w.qs)
	return r, nil
}

// check: every spec done without failed kernels, answers stable, and
// each kernel's checksum agreeing across all six variants.
func (w *hostExec) check(_ *bench, r *iterResult) (int, error) {
	failed := answerCheck(&w.prev, r.answers)
	sums := map[string]map[string]float64{} // kernel -> variant -> checksum
	for _, p := range r.profiles {
		v, _ := p.Metadata["variant"].(string)
		for _, rec := range p.Records {
			if c, ok := rec.Metrics["checksum"]; ok && len(rec.Path) == 2 {
				if sums[rec.Node()] == nil {
					sums[rec.Node()] = map[string]float64{}
				}
				sums[rec.Node()][v] = c
			}
		}
	}
	if len(sums) == 0 {
		return failed + 1, nil
	}
	for k, byVar := range sums {
		ref := byVar[sortedKeys(byVar)[0]]
		for _, c := range byVar {
			if !kernels.ChecksumsClose(ref, c) {
				warnf("host-exec: %s checksums disagree across variants: %v", k, byVar)
				failed++
				break
			}
		}
	}
	return failed, nil
}

// ---- model-sweep ---------------------------------------------------------

type modelSweep struct {
	dir        string
	p          campaign.Plan
	qs         []question
	prev       []uint64
	prevDigest uint64
	nspecs     int
}

func (w *modelSweep) plan() map[string]any { return planFacts(w.p) }
func (w *modelSweep) outDir() string       { return w.dir }
func (w *modelSweep) reset() error         { return os.RemoveAll(w.dir) }

func (w *modelSweep) setup(b *bench) error {
	w.dir = filepath.Join(b.dir, "model-sweep")
	if w.p.Machines == nil {
		w.p = sweepPlan(b)
		specs, err := w.p.Specs()
		if err != nil {
			return err
		}
		w.nspecs = len(specs)
	}
	w.qs, w.prev, w.prevDigest = nil, nil, 0
	return w.reset()
}

// liveAnalyzer is the incremental analysis that runs while a campaign
// streams in: for each finished spec it reads the profile back from the
// campaign directory, appends it to a Composer, seals a snapshot and
// answers one question.
type liveAnalyzer struct {
	dir      string
	comp     *thicket.Composer
	snap     *thicket.Thicket
	profiles []*caliper.Profile
	failed   int
	appendT  []float64 // µs
	snapT    []float64 // ms
	queryT   []float64 // ms
}

func (la *liveAnalyzer) run(events <-chan campaign.Event, tr *tracer, parent, iter int) {
	for e := range events {
		if e.Status != campaign.StatusDone {
			la.failed++
			continue
		}
		var p *caliper.Profile
		var err error
		tr.region("caliper.ReadFile", "caliper", parent, iter, func() {
			p, err = caliper.ReadFile(filepath.Join(la.dir, e.Spec.FileName()))
		})
		if err != nil {
			la.failed++
			continue
		}
		la.add(p, tr, parent, iter)
	}
}

// add appends one profile, seals a snapshot and asks the live question.
func (la *liveAnalyzer) add(p *caliper.Profile, tr *tracer, parent, iter int) {
	la.profiles = append(la.profiles, p)
	t0 := time.Now()
	tr.region("Composer.Add", "thicket", parent, iter, func() { la.comp.Add(p) })
	t1 := time.Now()
	tr.region("Composer.Snapshot", "thicket", parent, iter, func() { la.snap = la.comp.Snapshot() })
	t2 := time.Now()
	tr.region("question.live", "frame", parent, iter, func() { la.snap.GroupStats("variant", "time") })
	t3 := time.Now()
	la.appendT = append(la.appendT, float64(t1.Sub(t0))/float64(time.Microsecond))
	la.snapT = append(la.snapT, ms(t2.Sub(t1)))
	la.queryT = append(la.queryT, ms(t3.Sub(t2)))
}

func (w *modelSweep) iterate(b *bench, tr *tracer, parent, iter int) (*iterResult, error) {
	la := &liveAnalyzer{dir: w.dir, comp: thicket.NewComposer()}
	events := make(chan campaign.Event, w.nspecs) // one send per spec
	done := make(chan struct{})
	go func() {
		defer close(done)
		la.run(events, tr, parent, iter)
	}()
	res, specs, err := runCampaign(w.p, w.dir, false, tr, parent, iter, func(e campaign.Event) { events <- e })
	close(events)
	<-done
	if err != nil {
		return nil, err
	}
	if la.snap == nil {
		return nil, fmt.Errorf("model-sweep: no profile reached the live analyzer")
	}
	r := &iterResult{ops: len(res.Specs), failed: specFailures(res) + la.failed, specs: specs,
		campaign: res.Elapsed, profiles: la.profiles}
	if w.qs == nil {
		if w.qs, err = questionSet(la.snap, b.rng); err != nil {
			return nil, err
		}
	}
	if r.answers, err = answerAll(w.qs, la.snap, tr, parent, iter); err != nil {
		return nil, err
	}
	r.ops += len(w.qs)
	return r, nil
}

// check: the manifest lists every spec done, the modeled-metrics digest
// repeats across iterations, answers are stable, and the live Composer's
// final answers equal a batch FromProfiles of the same profiles.
func (w *modelSweep) check(_ *bench, r *iterResult) (int, error) {
	failed := answerCheck(&w.prev, r.answers)
	mf, err := manifestFailures(w.dir, w.p)
	if err != nil {
		return 0, err
	}
	failed += mf
	failed += digestCheck(&w.prevDigest, modeledDigest(r.profiles))
	batch, err := askAll(w.qs, thicket.FromProfiles(r.profiles), true, nil, -1, 0)
	if err != nil {
		return 0, err
	}
	if n := sameAnswers(r.answers.cold.digests, batch.digests); n > 0 {
		warnf("model-sweep: %d live answers differ from a batch FromProfiles of the same profiles", n)
		failed += n
	}
	return failed, nil
}

// ---- analyze -------------------------------------------------------------

type analyze struct {
	corpus string
	p      campaign.Plan
	qs     []question
	prev   []uint64
	n      int // setups so far, so each setup writes a fresh corpus
}

func (w *analyze) plan() map[string]any { return planFacts(w.p) }
func (w *analyze) outDir() string       { return w.corpus }
func (w *analyze) reset() error         { return nil }

// setup writes the corpus with the program's own model-only campaign.
func (w *analyze) setup(b *bench) error {
	if w.p.Machines == nil {
		w.p = corpusPlan(b)
	}
	if w.corpus != "" {
		if err := os.RemoveAll(w.corpus); err != nil {
			return err
		}
	}
	w.n++
	w.corpus = filepath.Join(b.dir, fmt.Sprintf("analyze-corpus-%d", w.n))
	w.qs, w.prev = nil, nil
	res, err := campaign.Run(context.Background(), w.p, campaign.Options{OutDir: w.corpus, Workers: b.nproc})
	if err != nil {
		return err
	}
	if n := specFailures(res); n > 0 {
		return fmt.Errorf("analyze: %d corpus specs failed", n)
	}
	return nil
}

func (w *analyze) iterate(b *bench, tr *tracer, parent, iter int) (*iterResult, error) {
	var t *thicket.Thicket
	var err error
	tr.region("thicket.FromDir", "thicket", parent, iter, func() { t, err = thicket.FromDir(w.corpus) })
	if err != nil {
		return nil, err
	}
	if w.qs == nil {
		if w.qs, err = questionSet(t, b.rng); err != nil {
			return nil, err
		}
	}
	r := &iterResult{ops: len(w.qs)}
	if r.answers, err = answerAll(w.qs, t, tr, parent, iter); err != nil {
		return nil, err
	}
	return r, nil
}

// check: each question's cold answer equals its warm answer and the
// previous iteration's answer, bit for bit.
func (w *analyze) check(_ *bench, r *iterResult) (int, error) {
	return answerCheck(&w.prev, r.answers), nil
}

// ---- fabric-sweep --------------------------------------------------------

// fabricWorkers is the fabric size: one worker process per CPU of the
// reference host (nproc = 2).
const fabricWorkers = 2

type fabricSweep struct {
	dir        string
	p          campaign.Plan
	qs         []question
	prev       []uint64
	prevDigest uint64
}

func (w *fabricSweep) plan() map[string]any {
	m := planFacts(w.p)
	m["fabric_workers"] = fabricWorkers
	return m
}
func (w *fabricSweep) outDir() string { return w.dir }
func (w *fabricSweep) reset() error   { return os.RemoveAll(w.dir) }

func (w *fabricSweep) setup(b *bench) error {
	if b.rajaperf == "" {
		return fmt.Errorf("fabric-sweep needs -rajaperf, the path of the rajaperf binary")
	}
	w.dir = filepath.Join(b.dir, "fabric-sweep")
	if w.p.Machines == nil {
		w.p = sweepPlan(b) // model-sweep's plan: same seed, same plan
	}
	w.qs, w.prev, w.prevDigest = nil, nil, 0
	return w.reset()
}

// cliArgs spells the plan as rajaperf campaign flags.
func (w *fabricSweep) cliArgs() []string {
	ints := func(xs []int) string {
		s := make([]string, len(xs))
		for i, x := range xs {
			s[i] = strconv.Itoa(x)
		}
		return strings.Join(s, ",")
	}
	return []string{
		"-campaign", "-fabric", strconv.Itoa(fabricWorkers),
		"-machines", strings.Join(w.p.Machines, ","),
		"-variants", strings.Join(w.p.Variants, ","),
		"-blocks", ints(w.p.GPUBlocks),
		"-sizes", ints(w.p.Sizes),
		"-kernels", strings.Join(w.p.Kernels, ","),
		"-exclude", strings.Join(w.p.Exclude, ","),
		"-outdir", w.dir,
	}
}

// fabricCounters parses the CLI's "fabric finished" log line.
func fabricCounters(log []byte) (map[string]float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(log))
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "fabric finished") {
			continue
		}
		out := map[string]float64{}
		for _, f := range strings.Fields(line) {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				continue
			}
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				out[k] = x
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("fabric-sweep: no \"fabric finished\" line in the CLI log")
}

func (w *fabricSweep) iterate(b *bench, tr *tracer, parent, iter int) (*iterResult, error) {
	var log bytes.Buffer
	cmd := exec.Command(b.rajaperf, w.cliArgs()...)
	cmd.Stdout, cmd.Stderr = &log, &log
	var err error
	start := time.Now()
	tr.region("rajaperf -fabric", "fabric", parent, iter, func() { err = cmd.Run() })
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("fabric-sweep: rajaperf: %w\n%s", err, log.Bytes())
	}
	counters, err := fabricCounters(log.Bytes())
	if err != nil {
		return nil, err
	}
	var man *campaign.Manifest
	tr.region("campaign.LoadManifest", "campaign", parent, iter, func() { man, err = campaign.LoadManifest(w.dir) })
	if err != nil {
		return nil, err
	}
	var t *thicket.Thicket
	tr.region("thicket.FromDir", "thicket", parent, iter, func() { t, err = thicket.FromDir(w.dir) })
	if err != nil {
		return nil, err
	}
	if w.qs == nil {
		if w.qs, err = questionSet(t, b.rng); err != nil {
			return nil, err
		}
	}
	r := &iterResult{ops: len(man.Entries)}
	if r.answers, err = answerAll(w.qs, t, tr, parent, iter); err != nil {
		return nil, err
	}
	r.ops += len(w.qs)
	for _, e := range man.Entries {
		r.specs = append(r.specs, specTiming{e.Spec, time.Duration(e.WallSec * float64(time.Second))})
	}
	counters["wall_s"] = wall.Seconds()
	r.extra = counters
	return r, nil
}

// check: the merged manifest is complete, answers are stable, and the
// modeled-metrics digest repeats across iterations (the harness compares
// it with an in-process model-sweep of the same plan once per run).
func (w *fabricSweep) check(_ *bench, r *iterResult) (int, error) {
	failed := answerCheck(&w.prev, r.answers)
	mf, err := manifestFailures(w.dir, w.p)
	if err != nil {
		return 0, err
	}
	failed += mf
	ps, err := caliper.ReadDir(w.dir)
	if err != nil {
		return 0, err
	}
	return failed + digestCheck(&w.prevDigest, modeledDigest(ps)), nil
}

// referenceDigest runs the fabric plan in process, as model-sweep does,
// and returns its modeled-metrics digest.
func (w *fabricSweep) referenceDigest(b *bench) (uint64, error) {
	dir := filepath.Join(b.dir, "fabric-reference")
	defer os.RemoveAll(dir)
	res, err := campaign.Run(context.Background(), w.p, campaign.Options{OutDir: dir, Workers: 1})
	if err != nil {
		return 0, err
	}
	if n := specFailures(res); n > 0 {
		return 0, fmt.Errorf("fabric-sweep: %d reference specs failed", n)
	}
	ps, err := caliper.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	return modeledDigest(ps), nil
}
