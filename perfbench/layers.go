package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/gpusim"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/raja"
	"rajaperf/internal/suite"
	"rajaperf/internal/thicket"
	"rajaperf/internal/tma"
)

// pairReps is how many back-to-back alternating pairs each (Base,
// variant) comparison runs per kernel; modelReps how often each
// model-only suite run and compose repeats, and callReps each µs-scale
// model call.
const (
	pairReps  = 3
	modelReps = 3
	callReps  = 20
)

// layerPass measures each layer on its own over the workload's inputs,
// as the hierarchical-roofline method collects each level separately:
// kernel pairs, suite runs, model calls, profile write and decode timed
// apart from compose, one campaign of each kind, and one fabric run.
func layerPass(b *bench, w workload, tr *tracer, t *tally) (map[string]metric, error) {
	m := map[string]metric{}
	root := tr.begin("layer_pass", "harness", -1, layerPassIter)
	defer tr.end(root)
	steps := []func(*bench, *tracer, int, *tally, map[string]metric) error{
		kernelPairs,
		suiteRuns,
		func(b *bench, tr *tracer, root int, t *tally, m map[string]metric) error {
			return profileLayers(b, w.outDir(), tr, root, m)
		},
		campaignLayers,
	}
	for _, step := range steps {
		if err := step(b, tr, root, t, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// kernelPairs runs every kernel's Base variant and each other variant on
// the same backend back to back, alternating which goes first, each Run
// after its own SetUp so sorts and scans see identical input. It also
// times the hardware-model calls on each kernel's instruction mix.
func kernelPairs(b *bench, tr *tracer, root int, t *tally, m map[string]metric) error {
	pool := raja.NewPool(b.nproc)
	defer pool.Close()
	cpuModel, err := tma.NewModel(machine.SPRDDR())
	if err != nil {
		return err
	}
	gpuDev, err := gpusim.NewDevice(machine.P9V100())
	if err != nil {
		return err
	}
	type pair struct{ base, other kernels.VariantID }
	pairs := []pair{
		{kernels.BaseSeq, kernels.LambdaSeq}, {kernels.BaseSeq, kernels.RAJASeq},
		{kernels.BaseOpenMP, kernels.LambdaOpenMP}, {kernels.BaseOpenMP, kernels.RAJAOpenMP},
		{kernels.BaseSeq, kernels.BaseOpenMP},
	}
	rp := kernels.RunParams{Size: hostSize, Workers: b.nproc, Ranks: 1, Pool: pool}
	runSum := map[kernels.VariantID]float64{}
	ratios := map[kernels.VariantID][]float64{}
	var parSpeedup, tmaUS, gpuUS []float64
	var setupMS, bytesMB, gflop float64

	for _, name := range shuffled(b.rng, kernels.Names()) {
		k, err := kernels.New(name)
		if err != nil {
			return err
		}
		info := k.Info()
		ks := tr.begin("kernel:"+name, "kernels", root, layerPassIter)
		runs := map[kernels.VariantID][]float64{}
		sums := map[kernels.VariantID]float64{}
		var setups []float64
		one := func(v kernels.VariantID) (float64, error) {
			t0 := time.Now()
			tr.region("SetUp", "kernels", ks, layerPassIter, func() { k.SetUp(rp) })
			t1 := time.Now()
			var err error
			tr.region("Run:"+v.String(), "kernels", ks, layerPassIter, func() { err = k.Run(v, rp) })
			t2 := time.Now()
			sums[v] = k.Checksum()
			tr.region("TearDown", "kernels", ks, layerPassIter, func() { k.TearDown() })
			setups = append(setups, ms(t1.Sub(t0)+time.Since(t2)))
			return ms(t2.Sub(t1)), err
		}
		for _, p := range pairs {
			if !info.HasVariant(p.base) || !info.HasVariant(p.other) {
				continue
			}
			var base, other []float64
			for r := 0; r < pairReps; r++ {
				order := []kernels.VariantID{p.base, p.other}
				if r%2 == 1 {
					order[0], order[1] = order[1], order[0]
				}
				for _, v := range order {
					d, err := one(v)
					if err != nil {
						return fmt.Errorf("layer pass: %s %s: %w", name, v, err)
					}
					runs[v] = append(runs[v], d)
					if v == p.base {
						base = append(base, d)
					} else {
						other = append(other, d)
					}
				}
			}
			if p.other == kernels.BaseOpenMP {
				parSpeedup = append(parSpeedup, median(base)/median(other))
			} else {
				ratios[p.other] = append(ratios[p.other], median(other)/median(base))
			}
		}
		// Variants no pair covers (a kernel without Base_OpenMP, say) still
		// count towards their variant's total.
		for _, vn := range cpuVariants {
			v, _ := kernels.ParseVariant(vn)
			for r := 0; r < pairReps && info.HasVariant(v) && len(runs[v]) < pairReps; r++ {
				d, err := one(v)
				if err != nil {
					return fmt.Errorf("layer pass: %s %s: %w", name, v, err)
				}
				runs[v] = append(runs[v], d)
			}
		}
		tr.end(ks)
		for v, ds := range runs {
			runSum[v] += median(ds)
		}
		setupMS += median(setups)

		// Checksums must agree across every variant run.
		t.attempted++
		var ref float64
		first := true
		for _, c := range sums {
			if first {
				ref, first = c, false
			} else if !kernels.ChecksumsClose(ref, c) {
				warnf("layer pass: %s checksums disagree across variants: %v", name, sums)
				t.failed++
				break
			}
		}

		// Computed counts at this size, and the model calls on the mix
		// the last SetUp left.
		k.SetUp(rp)
		am, mix := k.Metrics(), k.Mix()
		k.TearDown()
		reps := float64(rp.EffectiveReps(info))
		bytesMB += (am.BytesRead + am.BytesWritten) * reps / (1 << 20)
		gflop += am.Flops * reps / 1e9
		items := max(int(kernels.WorkItems(am, mix)), 1)
		tmaUS = append(tmaUS, timeCallUS(tr, "tma.Analyze", "tma", root, func() { cpuModel.Analyze(mix, am, items) }))
		gpuUS = append(gpuUS, timeCallUS(tr, "gpusim.Run", "gpusim", root, func() {
			gpuDev.Run(mix, gpusim.Launch{Items: items, BlockSize: raja.DefaultBlock})
		}))
	}

	for _, v := range []kernels.VariantID{kernels.BaseSeq, kernels.LambdaSeq, kernels.RAJASeq,
		kernels.BaseOpenMP, kernels.LambdaOpenMP, kernels.RAJAOpenMP} {
		m["kernels.run_ms."+v.String()] = metric{runSum[v], "ms"}
		if v != kernels.BaseSeq && v != kernels.BaseOpenMP {
			m["raja.ratio."+v.String()] = metric{median(ratios[v]), "ratio"}
		}
	}
	m["kernels.setup_ms"] = metric{setupMS, "ms"}
	m["kernels.bytes_mb"] = metric{bytesMB, "MiB"}
	m["kernels.gflop"] = metric{gflop, "GFLOP"}
	m["raja.par_speedup"] = metric{median(parSpeedup), "ratio"}
	m["tma.analyze_us"] = metric{median(tmaUS), "us"}
	m["gpusim.run_us"] = metric{median(gpuUS), "us"}
	return nil
}

// timeCallUS times f callReps times inside one span and returns the
// median in µs.
func timeCallUS(tr *tracer, name, layer string, parent int, f func()) float64 {
	ds := make([]float64, callReps)
	id := tr.begin(name, layer, parent, layerPassIter)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	tr.end(id)
	return median(ds)
}

// suiteRuns times suite.RunContext per spec: the six host variants
// executed, and each paper machine model-only at 32M, with the heap each
// model-only run allocates. One-kernel model-only runs on P9-V100 show
// which kernels that allocation comes from.
func suiteRuns(b *bench, tr *tracer, root int, t *tally, m map[string]metric) error {
	pool := raja.NewPool(b.nproc)
	defer pool.Close()
	runOne := func(cfg suite.Config) (float64, float64, error) {
		runtime.GC()
		u0 := readUsage()
		var err error
		var p *caliper.Profile
		start := time.Now()
		tr.region("suite.RunContext", "suite", root, layerPassIter, func() {
			p, err = suite.RunContext(context.Background(), cfg)
		})
		d := ms(time.Since(start))
		u1 := readUsage()
		t.attempted++
		if err != nil {
			return 0, 0, err
		}
		if kf, _ := p.Metadata["kernels_failed"].(int); kf > 0 {
			warnf("layer pass: %s %s: %d kernels failed", cfg.Machine.Shorthand, cfg.Variant, kf)
			t.failed++
		}
		return d, float64(u1.alloc-u0.alloc) / (1 << 20), nil
	}

	var host []float64
	for _, vn := range shuffled(b.rng, cpuVariants) {
		v, _ := kernels.ParseVariant(vn)
		d, _, err := runOne(suite.Config{Machine: machine.Host(), Variant: v, SizePerNode: hostSize,
			Workers: b.nproc, Execute: true, Pool: pool})
		if err != nil {
			return err
		}
		host = append(host, d)
	}
	m["suite.run_ms.host"] = metric{median(host), "ms"}

	byKind := map[machine.Kind][]float64{}
	allocs := map[string][]float64{}
	for _, mc := range shuffled(b.rng, machine.Paper()) {
		for r := 0; r < modelReps; r++ {
			d, a, err := runOne(suite.Config{Machine: mc, Variant: suite.DefaultVariant(mc), SizePerNode: paperSize})
			if err != nil {
				return err
			}
			byKind[mc.Kind] = append(byKind[mc.Kind], d)
			allocs[mc.Shorthand] = append(allocs[mc.Shorthand], a)
		}
	}
	m["suite.run_ms.cpu"] = metric{median(byKind[machine.CPU]), "ms"}
	m["suite.run_ms.gpu"] = metric{median(byKind[machine.GPU]), "ms"}
	m["suite.model_only_alloc_mb"] = metric{median(allocs["P9-V100"]), "MiB"}
	var line []string
	for _, n := range sortedKeys(allocs) {
		line = append(line, fmt.Sprintf("%s=%.1f", n, median(allocs[n])))
	}
	fmt.Printf("model-only suite allocation at 32M, MiB per run: %s\n", strings.Join(line, " "))

	// Per-kernel model-only allocation on P9-V100 at 32M.
	v100 := machine.P9V100()
	type kalloc struct {
		name string
		mib  float64
	}
	var ka []kalloc
	for _, name := range kernels.Names() {
		_, a, err := runOne(suite.Config{Machine: v100, Variant: suite.DefaultVariant(v100),
			SizePerNode: paperSize, Kernels: []string{name}})
		if err != nil {
			return err
		}
		ka = append(ka, kalloc{name, a})
	}
	sort.Slice(ka, func(i, j int) bool { return ka[i].mib > ka[j].mib })
	line = line[:0]
	for _, x := range ka[:min(5, len(ka))] {
		line = append(line, fmt.Sprintf("%s=%.1f", x.name, x.mib))
	}
	fmt.Printf("largest one-kernel model-only allocations on P9-V100 at 32M, MiB: %s\n", strings.Join(line, " "))
	return nil
}

// profileLayers times profile decode, write and compose apart, and the
// live analyzer's append, snapshot and question, over the profiles the
// workload's last iteration left in dir.
func profileLayers(b *bench, dir string, tr *tracer, root int, m map[string]metric) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+caliper.FileExt))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("layer pass: no profiles in %s", dir)
	}
	sort.Strings(paths)
	out := filepath.Join(b.dir, "layer-pass-profiles")
	defer os.RemoveAll(out)
	var decode, write, sizes []float64
	var ps []*caliper.Profile
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(fi.Size())/1024)
		var p *caliper.Profile
		t0 := time.Now()
		tr.region("caliper.ReadFile", "caliper", root, layerPassIter, func() { p, err = caliper.ReadFile(path) })
		decode = append(decode, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		ps = append(ps, p)
		t0 = time.Now()
		tr.region("Profile.WriteFile", "caliper", root, layerPassIter, func() {
			err = p.WriteFile(filepath.Join(out, filepath.Base(path)))
		})
		write = append(write, ms(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	m["caliper.decode_ms"] = metric{median(decode), "ms"}
	m["caliper.write_ms"] = metric{median(write), "ms"}
	m["caliper.profile_kb"] = metric{median(sizes), "KiB"}

	compose := make([]float64, modelReps)
	for i := range compose {
		t0 := time.Now()
		tr.region("thicket.FromProfiles", "thicket", root, layerPassIter, func() { thicket.FromProfiles(ps) })
		compose[i] = ms(time.Since(t0))
	}
	m["thicket.compose_ms"] = metric{median(compose), "ms"}

	la := &liveAnalyzer{comp: thicket.NewComposer()}
	for _, p := range ps {
		la.add(p, tr, root, layerPassIter)
	}
	m["thicket.append_us"] = metric{median(la.appendT), "us"}
	m["thicket.snapshot_ms"] = metric{median(la.snapT), "ms"}
	m["thicket.live_query_ms"] = metric{median(la.queryT), "ms"}
	return nil
}

// campaignLayers runs one host-exec and one model-sweep campaign with
// Options.Progress, and one fabric-sweep through the CLI, for the
// per-spec, bookkeeping and fabric metrics.
func campaignLayers(b *bench, tr *tracer, root int, t *tally, m map[string]metric) error {
	p50At := func(specs []specTiming, kind string) float64 {
		var xs []float64
		for _, s := range specs {
			// The paper's 32M size only: GPU specs at other sizes form a
			// separate latency cluster.
			if kindOf(s.spec) == kind && (kind == "host" || s.spec.Size == paperSize) {
				xs = append(xs, ms(s.elapsed))
			}
		}
		return median(xs)
	}
	once := func(w workload) (*iterResult, error) {
		if err := w.setup(b); err != nil {
			return nil, err
		}
		r, err := w.iterate(b, tr, root, layerPassIter)
		if err != nil {
			return nil, err
		}
		failed, err := w.check(b, r)
		if err != nil {
			return nil, err
		}
		t.attempted += r.ops
		t.failed += r.failed + failed
		return r, w.reset()
	}

	host, err := once(&hostExec{})
	if err != nil {
		return err
	}
	m["campaign.spec_ms.host"] = metric{p50At(host.specs, "host"), "ms"}

	sweep, err := once(&modelSweep{})
	if err != nil {
		return err
	}
	m["campaign.spec_ms.cpu"] = metric{p50At(sweep.specs, "cpu"), "ms"}
	m["campaign.spec_ms.gpu"] = metric{p50At(sweep.specs, "gpu"), "ms"}
	var specSum time.Duration
	for _, s := range sweep.specs {
		specSum += s.elapsed
	}
	m["campaign.bookkeeping_ms"] = metric{ms(sweep.campaign-specSum) / float64(len(sweep.specs)), "ms"}

	fab, err := once(&fabricSweep{})
	if err != nil {
		return err
	}
	x := fab.extra
	var wallSum time.Duration
	for _, s := range fab.specs {
		wallSum += s.elapsed
	}
	n := float64(len(fab.specs))
	m["fabric.spec_ms.cpu"] = metric{p50At(fab.specs, "cpu"), "ms"}
	m["fabric.spec_ms.gpu"] = metric{p50At(fab.specs, "gpu"), "ms"}
	m["fabric.fixed_ms"] = metric{x["wall_s"]*1000 - ms(wallSum)/fabricWorkers, "ms"}
	m["fabric.steals"] = metric{x["steals"], "count"}
	m["fabric.redispatches"] = metric{x["redispatched"], "count"}
	m["fabric.respawns"] = metric{x["respawned"], "count"}
	m["fabric.hedges"] = metric{x["hedged"], "count"}
	m["fabric.useful_ratio"] = metric{n / (n + x["hedged"] + x["redispatched"]), "ratio"}
	return nil
}
