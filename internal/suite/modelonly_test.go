package suite

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/raja"
)

// suiteKernels returns the registered kernel names, without this package's
// fault-injection kernels.
func suiteKernels() []string {
	var names []string
	for _, name := range kernels.Names() {
		k, _ := kernels.New(name)
		if _, injected := k.(*injectKernel); !injected {
			names = append(names, name)
		}
	}
	return names
}

// TestModelOnlySetUpAllocatesNoKernelData sets up every registered kernel
// model-only at P9-V100's per-rank share of the paper's 32M node problem
// (8,000,000 elements), where any kernel array is tens of MiB. TotalAlloc
// counts the whole process, so the bound leaves room for the runtime and
// the race detector; the test must not run in parallel with others.
func TestModelOnlySetUpAllocatesNoKernelData(t *testing.T) {
	m := machine.P9V100()
	rp := kernels.RunParams{
		Size:      DefaultSizePerNode / m.Ranks,
		Ranks:     min(m.Ranks, 8),
		ModelOnly: true,
	}
	const limit = 64 << 10
	var before, after runtime.MemStats
	for _, name := range suiteKernels() {
		k, err := kernels.New(name)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		k.SetUp(rp)
		runtime.ReadMemStats(&after)
		k.TearDown()
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%s: model-only SetUp at %d per rank allocated %d bytes, want < %d",
				name, rp.Size, got, limit)
		}
	}
}

// TestModelOnlySetUpModelsLikeExecutedSetUp pins that skipping the data
// changes no modeled number: a model-only SetUp reports the same analytic
// metrics and instruction mix as an executed one, at a small size and at
// SPR's per-rank share of the 32M node problem (285,714 elements).
func TestModelOnlySetUpModelsLikeExecutedSetUp(t *testing.T) {
	m := machine.SPRDDR()
	for _, size := range []int{8_000, DefaultSizePerNode / m.Ranks} {
		for _, name := range suiteKernels() {
			exec, err := kernels.New(name)
			if err != nil {
				t.Fatal(err)
			}
			model, _ := kernels.New(name)
			rp := kernels.RunParams{Size: size, Ranks: min(m.Ranks, 8)}
			exec.SetUp(rp)
			rp.ModelOnly = true
			model.SetUp(rp)
			if !reflect.DeepEqual(exec.Metrics(), model.Metrics()) {
				t.Errorf("%s at %d: metrics %+v model-only, %+v executed",
					name, size, model.Metrics(), exec.Metrics())
			}
			if !reflect.DeepEqual(exec.Mix(), model.Mix()) {
				t.Errorf("%s at %d: mix %+v model-only, %+v executed",
					name, size, model.Mix(), exec.Mix())
			}
			exec.TearDown()
			model.TearDown()
		}
	}
}

// TestExecuteRunOverlapsModelOnlyRun runs an Execute run while a
// model-only run is in flight: the model-only run holds in its first
// kernel-boundary heartbeat, past its set-up, until the Execute run has
// returned. The Execute run must see none of the other run's mode. Comm
// kernels stay out: a failure inside their simulated ranks would escape
// the suite's per-kernel recover.
func TestExecuteRunOverlapsModelOnlyRun(t *testing.T) {
	var names []string
	for _, name := range suiteKernels() {
		if !strings.HasPrefix(name, kernels.Comm.String()+"_") {
			names = append(names, name)
		}
	}
	execCfg := Config{
		Machine:     machine.Host(),
		Variant:     kernels.RAJASeq,
		SizePerNode: 4_000,
		Reps:        1,
		Kernels:     names,
		Execute:     true,
	}
	solo, err := Run(execCfg)
	if err != nil {
		t.Fatal(err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	modelErr := make(chan error, 1)
	go func() {
		_, err := Run(Config{
			Machine: machine.P9V100(),
			Variant: kernels.RAJAGPU,
			Heartbeat: func() {
				once.Do(func() {
					close(entered)
					<-release
				})
			},
		})
		modelErr <- err
	}()
	select {
	case <-entered:
	case err := <-modelErr:
		t.Fatalf("model-only run ended before its first kernel: %v", err)
	}
	overlapped, err := Run(execCfg)
	close(release)
	if err := <-modelErr; err != nil {
		t.Fatalf("model-only run: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}

	if n := overlapped.Metadata["kernels_failed"]; n != 0 {
		t.Fatalf("overlapped Execute run: kernels_failed = %v, errors %v",
			n, overlapped.Metadata["errors"])
	}
	for _, name := range names {
		want, got := solo.Find(name), overlapped.Find(name)
		if want == nil {
			continue // no RAJA_Seq variant
		}
		if got == nil {
			t.Errorf("%s missing from the overlapped run", name)
			continue
		}
		if got.Metrics["checksum"] != want.Metrics["checksum"] {
			t.Errorf("%s: checksum %v overlapped, %v solo",
				name, got.Metrics["checksum"], want.Metrics["checksum"])
		}
	}
}

// TestImbalanceServiceEndsWithItsRun runs an imbalance-service run and
// then a plain run on one pool: the plain run must record no lane
// metrics.
func TestImbalanceServiceEndsWithItsRun(t *testing.T) {
	svc, err := caliper.ParseServices("imbalance")
	if err != nil {
		t.Fatal(err)
	}
	pool := raja.NewPool(2)
	defer pool.Close()
	cfg := Config{
		Machine:     machine.Host(),
		Variant:     kernels.RAJAOpenMP,
		SizePerNode: 20_000,
		Reps:        1,
		Workers:     2,
		Kernels:     []string{"Stream_TRIAD", "Basic_DAXPY"},
		Execute:     true,
		Pool:        pool,
		Services:    svc,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	cfg.Services = nil
	p, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cfg.Kernels {
		rec := p.Find(name)
		if rec == nil {
			t.Fatalf("%s missing", name)
		}
		for metric := range rec.Metrics {
			if strings.HasPrefix(metric, "lane") || metric == "imbalance_pct" {
				t.Errorf("%s: plain run recorded %s = %v", name, metric, rec.Metrics[metric])
			}
		}
	}
}
