// Package suite drives the RAJA Performance Suite: it registers every
// kernel group, executes kernels under a chosen variant and machine, and
// produces one Caliper profile per run — the integration the paper
// describes in Sec II-D. Kernel computations execute for real (checksums
// are recorded); hardware timing and counters for the paper's four target
// machines come from the TMA and GPU models, standing in for PAPI and
// Nsight Compute.
//
// A run is structured as three explicit phases that package campaign
// orchestrates across many configurations:
//
//   - prepare resolves sizes, validates the kernel list, wires the
//     executor pool and measurement services, and records run metadata;
//   - runKernel executes and models one kernel with per-kernel fault
//     isolation — a failing or panicking kernel is recorded in the
//     profile ("error" metric, "errors"/"kernels_failed" metadata) and
//     the run continues instead of discarding the whole profile;
//   - finalize closes the run: end-of-collection metadata and the
//     annotation overhead the recorder measured during the run.
//
// RunContext threads context cancellation between kernels, so a campaign
// can abandon an in-flight run at kernel granularity.
package suite

import (
	"context"
	"fmt"
	"time"

	"rajaperf/internal/adiak"
	"rajaperf/internal/caliper"
	"rajaperf/internal/gpusim"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/raja"
	"rajaperf/internal/resilience"
	"rajaperf/internal/tma"

	// Register all kernel groups.
	_ "rajaperf/internal/kernels/algorithms"
	_ "rajaperf/internal/kernels/apps"
	_ "rajaperf/internal/kernels/basic"
	_ "rajaperf/internal/kernels/comm"
	_ "rajaperf/internal/kernels/lcals"
	_ "rajaperf/internal/kernels/polybench"
	_ "rajaperf/internal/kernels/stream"
)

// DefaultSizePerNode is the node problem size used when Config.SizePerNode
// is zero — the paper's 32M (Table III). Model-only runs allocate no kernel
// data, so the size does not change their cost; pass a smaller size when
// executing real computations in tests.
const DefaultSizePerNode = 32_000_000

// Config selects what to run and on which (modeled) machine.
type Config struct {
	Machine     *machine.Machine
	Variant     kernels.VariantID
	GPUBlock    int      // GPU tuning (0 = raja.DefaultBlock)
	SizePerNode int      // total problem size per node (0 = default)
	Reps        int      // kernel repetitions (0 = kernel default)
	Workers     int      // execution workers (0 = all cores)
	Kernels     []string // full names; empty = whole suite
	Execute     bool     // run the real computation (checksums); models run either way

	// Schedule selects the parallel loop schedule for executed parallel
	// back-ends (0 = back-end default: static for OpenMP, dynamic for GPU).
	Schedule raja.Schedule
	// Pool is the persistent executor every kernel of the run dispatches
	// through, so a whole suite run reuses one set of parked workers.
	// Nil means the shared raja.Default() pool. Campaigns give every
	// in-flight run its own pool so concurrent runs do not contend.
	Pool *raja.Pool

	// Faults is the deterministic fault injector exercising the run's
	// failure paths (kernel.panic, lane.slow fire inside executeKernel).
	// Nil — the production value — injects nothing.
	Faults *resilience.Injector
	// Heartbeat, when non-nil, is invoked at every kernel boundary. The
	// campaign watchdog sums it with the pool's granule heartbeat so
	// model-only runs (which may never dispatch through the pool) still
	// report liveness.
	Heartbeat func()

	// Services selects the measurement services (caliper.ParseServices)
	// active for the run: counter sources sampled at region boundaries,
	// the per-lane imbalance instrumentation, and the event trace. Nil or
	// empty means wall-clock timing only.
	Services caliper.Services
	// Tracer receives the run's region and lane events when the trace
	// service is enabled. The caller owns writing it out after Run.
	Tracer *caliper.Tracer
}

// DefaultVariant returns the variant Table III assigns to a machine:
// RAJA_Seq per-core ranks on the CPU systems, RAJA GPU back-ends on the
// accelerated systems.
func DefaultVariant(m *machine.Machine) kernels.VariantID {
	if m.Kind == machine.GPU {
		return kernels.RAJAGPU
	}
	return kernels.RAJASeq
}

// Run executes (and models) the configured kernels and returns the run's
// Caliper profile. It is RunContext with a background context.
func Run(cfg Config) (*caliper.Profile, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes (and models) the configured kernels and returns the
// run's Caliper profile. Kernels that do not implement the requested
// variant are skipped, mirroring Table I's sparsity; the profile metadata
// records how many. A kernel that fails or panics is recorded in the
// profile and the run continues (per-kernel fault isolation); only
// configuration errors and context cancellation abandon the run.
func RunContext(ctx context.Context, cfg Config) (*caliper.Profile, error) {
	r, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()

	r.rec.Begin("suite")
	for _, k := range r.kernels {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("suite: run canceled: %w", context.Cause(ctx))
		}
		if cfg.Heartbeat != nil {
			cfg.Heartbeat()
		}
		if err := r.runKernel(ctx, k); err != nil {
			return nil, err
		}
	}
	if err := r.rec.End("suite"); err != nil {
		return nil, err
	}
	// A cancellation during the final kernel must not produce a profile:
	// the run was abandoned, not completed.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("suite: run canceled: %w", context.Cause(ctx))
	}
	teleRuns.Inc()
	return r.finalize(), nil
}

// run is the state of one suite execution between prepare and finalize.
type run struct {
	cfg      Config
	rec      *caliper.Recorder
	pool     *raja.Pool
	kernels  []kernels.Kernel
	cpuModel *tma.Model
	gpuDev   *gpusim.Device

	sizeNode int
	ranks    int
	perRank  int

	skipped   int
	failed    []string // "kernel: message", in run order
	wallStart time.Time

	// cleanups restore the pool state touched by prepare (lane
	// instrumentation, lane-trace hooks), run in reverse order by close.
	// Model-only mode needs none: it is a per-kernel RunParams field, so
	// Execute and model-only runs may overlap in one process.
	cleanups []func()
}

// prepare resolves the configuration into a ready-to-execute run: problem
// decomposition, validated kernel instances, hardware models, the executor
// pool with its measurement services, and the recorder primed with run
// metadata. It performs no kernel work, so a configuration error costs
// nothing.
func prepare(cfg Config) (*run, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("suite: config needs a machine")
	}
	r := &run{cfg: cfg}

	r.sizeNode = cfg.SizePerNode
	if r.sizeNode <= 0 {
		r.sizeNode = DefaultSizePerNode
	}
	r.ranks = cfg.Machine.Ranks
	if r.ranks <= 0 {
		r.ranks = 1
	}
	r.perRank = max(r.sizeNode/r.ranks, 1)

	names := cfg.Kernels
	if len(names) == 0 {
		names = kernels.Names()
	}
	// Instantiate (and thereby validate) the kernel list up front: an
	// unknown kernel name is a plan error, not a mid-run casualty.
	r.kernels = make([]kernels.Kernel, 0, len(names))
	for _, name := range names {
		k, err := kernels.New(name)
		if err != nil {
			return nil, err
		}
		r.kernels = append(r.kernels, k)
	}

	r.pool = cfg.Pool
	if r.pool == nil {
		r.pool = raja.Default()
	}
	pool := r.pool
	if cfg.Services.Enabled(caliper.ServiceImbalance) {
		pool.Instrument(true)
		r.cleanups = append(r.cleanups, func() { pool.Instrument(false) })
	}
	if cfg.Tracer != nil {
		pool.SetLaneTrace(cfg.Tracer.LaneEvent)
		r.cleanups = append(r.cleanups, func() { pool.SetLaneTrace(nil) })
	}

	switch cfg.Machine.Kind {
	case machine.CPU:
		m, err := tma.NewModel(cfg.Machine)
		if err != nil {
			return nil, err
		}
		r.cpuModel = m
	case machine.GPU:
		d, err := gpusim.NewDevice(cfg.Machine)
		if err != nil {
			return nil, err
		}
		r.gpuDev = d
	}

	r.rec = caliper.NewRecorderWith(caliper.Config{
		Sources: cfg.Services.CounterSources(),
		Tracer:  cfg.Tracer,
	})
	for mk, mv := range adiak.Collect() {
		r.rec.AddMetadata(mk, mv)
	}
	exec := adiak.Executor(cfg.Schedule.String(), cfg.Workers, r.pool.Lanes(),
		cfg.GPUBlock, cfg.Services.String())
	for mk, mv := range exec {
		r.rec.AddMetadata(mk, mv)
	}
	r.rec.AddMetadata("machine", cfg.Machine.Shorthand)
	r.rec.AddMetadata("variant", cfg.Variant.String())
	r.rec.AddMetadata("tuning", tuningName(cfg))
	r.rec.AddMetadata("schedule", cfg.Schedule.String())
	r.rec.AddMetadata("ranks", r.ranks)
	r.rec.AddMetadata("size_per_node", r.sizeNode)
	r.rec.AddMetadata("size_per_rank", r.perRank)
	r.rec.AddMetadata("collection_begin", adiak.Timestamp())
	r.wallStart = time.Now()
	return r, nil
}

// close restores the pool state touched by prepare, in reverse order.
func (r *run) close() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
	r.cleanups = nil
}

// finalize closes the run: end-of-collection metadata, failure accounting,
// and the annotation overhead the recorder measured on the run's own
// regions.
func (r *run) finalize() *caliper.Profile {
	wall := time.Since(r.wallStart).Seconds()
	r.rec.AddMetadata("collection_end", adiak.Timestamp())
	r.rec.AddMetadata("kernels_skipped", r.skipped)
	r.rec.AddMetadata("kernels_run", len(r.kernels)-r.skipped)
	r.rec.AddMetadata("kernels_failed", len(r.failed))
	if len(r.failed) > 0 {
		r.rec.AddMetadata("errors", append([]string(nil), r.failed...))
	}

	ov := r.rec.Overhead()
	r.rec.AddMetadata("caliper.overhead.per_region_sec", ov.PerRegionSec)
	r.rec.AddMetadata("caliper.overhead.samples", ov.Samples)
	r.rec.AddMetadata("caliper.overhead.pct", 100*ov.Fraction(float64(ov.Samples), wall))
	return r.rec.Profile()
}

func tuningName(cfg Config) string {
	if cfg.Variant.IsGPU() {
		b := cfg.GPUBlock
		if b <= 0 {
			b = raja.DefaultBlock
		}
		return fmt.Sprintf("block_%d", b)
	}
	return "default"
}

// execution is what executeKernel measured for one kernel: the executed
// wall time and checksum plus the per-lane imbalance sample, when the
// respective services ran.
type execution struct {
	im       raja.Imbalance
	measured bool
}

// runKernel runs one kernel inside its Caliper region with per-kernel
// fault isolation: an execution error or panic is recorded on the kernel's
// node ("error" metric) and in the run's failure list, and the run
// continues. The returned error is reserved for recorder invariant
// violations (misnested annotations), which abandon the run.
func (r *run) runKernel(ctx context.Context, k kernels.Kernel) error {
	info := k.Info()
	if !info.HasVariant(r.cfg.Variant) {
		r.skipped++
		teleKernelsSkipped.Inc()
		return nil
	}
	name := info.FullName()
	rp := kernels.RunParams{
		Size:      r.perRank,
		Reps:      r.cfg.Reps,
		Workers:   r.cfg.Workers,
		GPUBlock:  r.cfg.GPUBlock,
		Ranks:     min(r.ranks, 8),
		Schedule:  r.cfg.Schedule,
		Pool:      r.pool,
		Ctx:       ctx,
		ModelOnly: !r.cfg.Execute,
	}
	path := []string{"suite", name}

	// The Caliper region carries the annotation structure and measured
	// wall time; modeled metrics are attached to the node after the
	// region closes so End's wall-clock accumulation cannot contaminate
	// the modeled "time" value.
	kStart := time.Now()
	r.rec.Begin(name)
	ex, runErr := r.executeKernel(k, rp)
	if err := r.rec.End(name); err != nil {
		return err
	}
	teleKernelsRun.Inc()
	teleKernelNS.Observe(time.Since(kStart).Nanoseconds())
	if runErr != nil {
		r.failed = append(r.failed, name+": "+runErr.Error())
		teleKernelsFailed.Inc()
		r.rec.SetMetricAt(path, "error", 1)
		return nil
	}

	// Per-lane load-imbalance metrics from the imbalance service: the
	// busy-time distribution of this kernel's dispatches across executor
	// lanes, the scalability signal wall clocks cannot see.
	if ex.measured {
		im := ex.im
		r.rec.SetMetricAt(path, "lanes_used", float64(im.Lanes))
		r.rec.SetMetricAt(path, "lane_busy_max_sec", im.Max.Seconds())
		r.rec.SetMetricAt(path, "lane_busy_min_sec", im.Min.Seconds())
		r.rec.SetMetricAt(path, "lane_busy_avg_sec", im.Avg.Seconds())
		r.rec.SetMetricAt(path, "imbalance_pct", im.Pct)
		r.rec.SetMetricAt(path, "lane_granules", float64(im.Granules))
		r.rec.SetMetricAt(path, "lane_steals", float64(im.Steals))
		r.rec.SetMetricAt(path, "lane_wakes", float64(im.Wakes))
	}

	r.modelKernel(k, path)
	return nil
}

// executeKernel performs the kernel's SetUp → Run → TearDown lifecycle and
// records the execution-time metrics (wall time, checksum) while the
// kernel's region is open. Any error or panic — in SetUp, Run, or TearDown
// — is returned for the caller to record, never propagated as a panic, so
// one broken kernel cannot take down the run.
func (r *run) executeKernel(k kernels.Kernel, rp kernels.RunParams) (ex execution, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	k.SetUp(rp)
	defer k.TearDown()
	// Injected faults exercise the isolation and watchdog paths exactly
	// where a real kernel would fail: inside the lifecycle, with SetUp
	// done and TearDown pending. A nil injector fires nothing.
	if r.cfg.Faults.Fire(resilience.FaultKernelPanic) {
		panic("injected: kernel panic (resilience fault " + resilience.FaultKernelPanic + ")")
	}
	if r.cfg.Faults.Fire(resilience.FaultSlowLane) {
		// A wedged lane: hold the kernel until the watchdog (or operator)
		// cancels the run. The backstop keeps an unwatched run finite.
		select {
		case <-rp.Ctx.Done():
			return ex, fmt.Errorf("injected slow lane canceled: %w", context.Cause(rp.Ctx))
		case <-time.After(30 * time.Second):
			return ex, fmt.Errorf("injected slow lane expired without cancellation")
		}
	}
	if !r.cfg.Execute {
		return ex, nil
	}
	name := k.Info().FullName()
	// A pool instrumented by an earlier run may still hold counters;
	// only this run's imbalance service records lane metrics.
	imbalance := r.cfg.Services.Enabled(caliper.ServiceImbalance)
	var before []raja.LaneSnapshot
	if imbalance {
		before = r.pool.InstrSnapshot()
	}
	start := time.Now()
	if err := k.Run(r.cfg.Variant, rp); err != nil {
		return ex, fmt.Errorf("suite: %s: %w", name, err)
	}
	r.rec.SetMetric("wall_time", time.Since(start).Seconds())
	r.rec.SetMetric("checksum", k.Checksum())
	if imbalance {
		ex.im = raja.ComputeImbalance(before, r.pool.InstrSnapshot())
		ex.measured = true
	}
	return ex, nil
}

// modelKernel attaches the analytic metrics (Sec II-B) and the hardware
// model's counters to the kernel's node, scaled to node totals per rep.
func (r *run) modelKernel(k kernels.Kernel, path []string) {
	am := k.Metrics()
	scale := float64(r.ranks)
	nodeAM := kernels.AnalyticMetrics{
		BytesRead:    am.BytesRead * scale,
		BytesWritten: am.BytesWritten * scale,
		Flops:        am.Flops * scale,
	}
	r.rec.SetMetricAt(path, "Bytes/Rep Read", nodeAM.BytesRead)
	r.rec.SetMetricAt(path, "Bytes/Rep Written", nodeAM.BytesWritten)
	r.rec.SetMetricAt(path, "Flops/Rep", nodeAM.Flops)
	r.rec.SetMetricAt(path, "FlopsPerByte", nodeAM.FlopsPerByte())
	r.rec.SetMetricAt(path, "ProblemSize", float64(r.sizeNode))

	// Hardware model metrics, scaled by the kernel's true inner work
	// (matrix kernels perform more operations than their storage size).
	mix := k.Mix()
	nodeIters := int(kernels.WorkItems(nodeAM, mix))
	if nodeIters < 1 {
		nodeIters = r.sizeNode
	}
	var modelTime float64
	switch {
	case r.cpuModel != nil:
		res := r.cpuModel.Analyze(mix, nodeAM, nodeIters)
		modelTime = res.SecondsPerRep
		r.rec.SetMetricAt(path, "time", modelTime)
		r.rec.SetMetricAt(path, "frontend_bound", res.Metrics.FrontendBound)
		r.rec.SetMetricAt(path, "bad_speculation", res.Metrics.BadSpeculation)
		r.rec.SetMetricAt(path, "retiring", res.Metrics.Retiring)
		r.rec.SetMetricAt(path, "core_bound", res.Metrics.CoreBound)
		r.rec.SetMetricAt(path, "memory_bound", res.Metrics.MemoryBound)
		r.rec.SetMetricAt(path, "backend_bound", res.Metrics.BackendBound())
		for c, v := range res.Counters {
			r.rec.SetMetricAt(path, c, v)
		}
	case r.gpuDev != nil:
		block := r.cfg.GPUBlock
		if block <= 0 {
			block = raja.DefaultBlock
		}
		res := r.gpuDev.Run(mix, gpusim.Launch{Items: nodeIters, BlockSize: block})
		modelTime = res.SecondsPerRep
		r.rec.SetMetricAt(path, "time", modelTime)
		r.rec.SetMetricAt(path, "occupancy", res.Occupancy)
		for c, v := range res.Counters.Map() {
			r.rec.SetMetricAt(path, c, v)
		}
	}

	// Derived achieved rates (Fig 10 axes).
	if modelTime > 0 {
		r.rec.SetMetricAt(path, "GB/s", (nodeAM.BytesRead+nodeAM.BytesWritten)/modelTime/1e9)
		r.rec.SetMetricAt(path, "GFLOPS", nodeAM.Flops/modelTime/1e9)
	}
}
