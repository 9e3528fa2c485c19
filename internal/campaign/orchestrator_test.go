package campaign

// End-to-end campaign acceptance: fault isolation across specs, resume
// semantics of the record layer, serial/concurrent equivalence, and
// cancellation. These run real (small) kernel executions, so each test
// binary registers its own misbehaving kernel.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/kernels"
	"rajaperf/internal/resilience"
)

// faultyKernel always fails its Run; campaigns over it must still record
// one valid profile per spec, with the failure as metadata.
type faultyKernel struct {
	kernels.KernelBase
}

func (k *faultyKernel) SetUp(rp kernels.RunParams) {
	n := float64(rp.EffectiveSize(k.Info()))
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead: 16 * n, BytesWritten: 8 * n, Flops: 2 * n,
	})
	k.SetMix(kernels.Mix{Flops: 2, Loads: 2, Stores: 1})
}

func (k *faultyKernel) Run(v kernels.VariantID, rp kernels.RunParams) error {
	return errors.New("injected failure")
}

func (k *faultyKernel) TearDown() {}

func init() {
	kernels.Register(func() kernels.Kernel {
		k := &faultyKernel{}
		k.KernelBase = kernels.NewKernelBase(kernels.Info{
			Name:        "INJECT_FAIL",
			Group:       kernels.Basic,
			Complexity:  kernels.CxN,
			DefaultSize: 1000,
			DefaultReps: 1,
			Variants: []kernels.VariantID{
				kernels.BaseSeq, kernels.RAJASeq, kernels.RAJAOpenMP,
			},
		})
		return k
	})
}

// executePlan is the acceptance campaign: 2 machines x 2 variants with
// one deliberately failing kernel in every run.
func executePlan(workers int) Plan {
	return Plan{
		Machines: []string{"SPR-DDR", "SPR-HBM"},
		Variants: []string{"RAJA_Seq", "RAJA_OpenMP"},
		Sizes:    []int{10_000},
		Reps:     1,
		Workers:  workers,
		Kernels:  []string{"Stream_TRIAD", "Basic_INJECT_FAIL", "Stream_DOT"},
		Execute:  true,
	}
}

func TestCampaignFaultIsolationAndResume(t *testing.T) {
	dir := t.TempDir()
	plan := executePlan(2)

	res, err := Run(context.Background(), plan, Options{
		OutDir:  dir,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 4 || res.Failed != 0 || res.Resumed != 0 {
		t.Fatalf("fresh campaign: done %d failed %d resumed %d, want 4/0/0",
			res.Done, res.Failed, res.Resumed)
	}

	// One valid profile per spec, with the kernel failure recorded as
	// metadata rather than a lost run. Numbers come back as float64 after
	// the JSON roundtrip.
	for _, sr := range res.Specs {
		p, err := caliper.ReadFile(sr.Path)
		if err != nil {
			t.Fatalf("%s: %v", sr.Spec.ID(), err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", sr.Spec.ID(), err)
		}
		if got, _ := p.Metadata["kernels_failed"].(float64); got != 1 {
			t.Errorf("%s: kernels_failed = %v, want 1", sr.Spec.ID(), p.Metadata["kernels_failed"])
		}
		if _, has := p.Metadata["errors"]; !has {
			t.Errorf("%s: errors metadata missing", sr.Spec.ID())
		}
		if got, _ := p.Metadata["campaign.spec"].(string); got != sr.Spec.ID() {
			t.Errorf("%s: campaign.spec stamp = %q", sr.Spec.ID(), got)
		}
		rec := p.Find("Basic_INJECT_FAIL")
		if rec == nil || rec.Metrics["error"] != 1 {
			t.Errorf("%s: failed kernel not marked in profile", sr.Spec.ID())
		}
		for _, healthy := range []string{"Stream_TRIAD", "Stream_DOT"} {
			if rec := p.Find(healthy); rec == nil || rec.Metrics["checksum"] == 0 {
				t.Errorf("%s: %s lost its checksum to a neighbor's failure",
					sr.Spec.ID(), healthy)
			}
		}
	}

	// Resume over a complete campaign re-runs zero specs.
	res2, err := Run(context.Background(), plan, Options{
		OutDir:  dir,
		Workers: 2,
		Resume:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Done != 0 || res2.Resumed != 4 {
		t.Fatalf("resume: done %d resumed %d, want 0/4", res2.Done, res2.Resumed)
	}

	// Corrupt one recorded profile: resume must re-run exactly that spec.
	victim := res.Specs[1]
	if err := os.WriteFile(victim.Path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	res3, err := Run(context.Background(), plan, Options{
		OutDir:  dir,
		Workers: 2,
		Resume:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Done != 1 || res3.Resumed != 3 {
		t.Fatalf("resume after corruption: done %d resumed %d, want 1/3",
			res3.Done, res3.Resumed)
	}
	for _, sr := range res3.Specs {
		if sr.Spec.ID() == victim.Spec.ID() && sr.Status != StatusDone {
			t.Errorf("corrupted spec %s status = %s, want re-run", sr.Spec.ID(), sr.Status)
		}
	}
	if p, err := caliper.ReadFile(victim.Path); err != nil || p.Validate() != nil {
		t.Errorf("corrupted profile was not rewritten: %v", err)
	}

	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if done, failed := man.Counts(); done != 4 || failed != 0 {
		t.Errorf("manifest counts = %d done %d failed, want 4/0", done, failed)
	}
}

// normalize strips the run-varying parts of a profile — wall-clock
// metrics and collection metadata — leaving what must be identical
// between a serial and a concurrent campaign.
func normalize(p *caliper.Profile) (map[string]map[string]float64, map[string]any) {
	recs := make(map[string]map[string]float64, len(p.Records))
	for _, r := range p.Records {
		m := make(map[string]float64, len(r.Metrics))
		for k, v := range r.Metrics {
			if k == "time" || k == "wall_time" {
				continue
			}
			m[k] = v
		}
		recs[r.PathKey()] = m
	}
	meta := make(map[string]any, len(p.Metadata))
	for k, v := range p.Metadata {
		switch {
		case strings.HasPrefix(k, "collection_"),
			strings.HasPrefix(k, "caliper.overhead."),
			k == "executor.workers", k == "executor.lanes",
			k == "launchdate":
			continue
		}
		meta[k] = v
	}
	return recs, meta
}

func TestSerialConcurrentEquivalence(t *testing.T) {
	plan := Plan{
		Machines: []string{"SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X"},
		Sizes:    []int{1_000_000},
	}
	collect := func(workers int) map[string]*caliper.Profile {
		res, err := Run(context.Background(), plan, Options{
			Workers: workers,
			Retain:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]*caliper.Profile, len(res.Specs))
		for _, sr := range res.Specs {
			if sr.Status != StatusDone || sr.Profile == nil {
				t.Fatalf("workers=%d: %s status %s", workers, sr.Spec.ID(), sr.Status)
			}
			out[sr.Spec.ID()] = sr.Profile
		}
		return out
	}
	serial := collect(1)
	concurrent := collect(4)

	if len(serial) != len(concurrent) {
		t.Fatalf("spec sets differ: %d vs %d", len(serial), len(concurrent))
	}
	for id, sp := range serial {
		cp, ok := concurrent[id]
		if !ok {
			t.Fatalf("concurrent campaign missing %s", id)
		}
		sRecs, sMeta := normalize(sp)
		cRecs, cMeta := normalize(cp)
		if !reflect.DeepEqual(sRecs, cRecs) {
			t.Errorf("%s: records differ between serial and concurrent runs", id)
		}
		if !reflect.DeepEqual(sMeta, cMeta) {
			t.Errorf("%s: metadata differs between serial and concurrent runs:\n%v\n%v",
				id, sMeta, cMeta)
		}
	}
}

func TestConcurrentCampaignIsFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful comparison, have %d", runtime.NumCPU())
	}
	plan := Plan{
		Machines: []string{"SPR-DDR", "SPR-HBM"},
		Variants: []string{"RAJA_Seq", "RAJA_OpenMP"},
		Sizes:    []int{2_000_000},
		Reps:     5,
		Kernels:  []string{"Stream_TRIAD", "Stream_DOT", "Stream_ADD"},
		Execute:  true,
	}
	elapsed := func(workers int) float64 {
		res, err := Run(context.Background(), plan, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Done != 4 {
			t.Fatalf("workers=%d: done %d, want 4", workers, res.Done)
		}
		return res.Elapsed.Seconds()
	}
	serial := elapsed(1)
	concurrent := elapsed(4)
	t.Logf("serial %.3fs, 4 workers %.3fs", serial, concurrent)
	if concurrent >= serial {
		t.Errorf("concurrent campaign (%.3fs) not faster than serial (%.3fs)",
			concurrent, serial)
	}
}

func TestCampaignCancellation(t *testing.T) {
	dir := t.TempDir()
	plan := executePlan(1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	finished := 0 // Progress calls are serialized by the orchestrator
	res, err := Run(ctx, plan, Options{
		OutDir:  dir,
		Workers: 1,
		// Cancel as soon as the first spec completes: the rest must end
		// canceled, not failed, and the manifest must stay consistent.
		Progress: func(Event) {
			if finished++; finished == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign error = %v, want context.Canceled", err)
	}
	nCanceled := 0
	for _, sr := range res.Specs {
		if sr.Status == StatusCanceled {
			nCanceled++
		}
		if sr.Status == StatusFailed {
			t.Errorf("%s marked failed by cancellation", sr.Spec.ID())
		}
	}
	if nCanceled == 0 {
		t.Fatal("no specs were canceled")
	}

	// The interrupted campaign resumes: completed specs skip, canceled
	// specs run, and the directory ends fully populated.
	res2, err := Run(context.Background(), plan, Options{
		OutDir:  dir,
		Workers: 2,
		Resume:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Done+res2.Resumed != 4 || res2.Failed != 0 {
		t.Fatalf("resume after cancel: done %d resumed %d failed %d",
			res2.Done, res2.Resumed, res2.Failed)
	}
	if res2.Resumed != res.Done {
		t.Errorf("resumed %d specs, want the %d completed before cancellation",
			res2.Resumed, res.Done)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+caliper.FileExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Errorf("campaign dir holds %d profiles, want 4", len(files))
	}
}

// stubExecutor is a scripted execution backend: it returns canned
// results without running anything, so the seam tests observe exactly
// what the orchestrator does around Options.Executor — which specs it
// submits, how it books the results, when the breaker short-circuits
// submission, and that it never closes a backend it does not own.
type stubExecutor struct {
	outcome func(RunSpec) SpecResult

	mu      sync.Mutex
	submits []string
	closes  int
}

func (s *stubExecutor) Submit(_ context.Context, spec RunSpec) SpecResult {
	s.mu.Lock()
	s.submits = append(s.submits, spec.ID())
	s.mu.Unlock()
	sr := s.outcome(spec)
	sr.Spec = spec
	return sr
}

// Close counts calls: the orchestrator must never close a backend it
// did not create, not even through an io.Closer assertion.
func (s *stubExecutor) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closes++
	return nil
}

func seamPlan() Plan {
	return Plan{
		Machines: []string{"SPR-DDR", "SPR-HBM"},
		Variants: []string{"RAJA_Seq", "RAJA_OpenMP"},
		Sizes:    []int{10_000},
		Kernels:  []string{"Stream_TRIAD"},
		Execute:  true,
	}
}

// TestExecutorSeam drives the orchestrator against a caller-provided
// backend: every spec must be submitted exactly once, canned results
// must land in Result and the manifest verbatim (status, attempts,
// error, file), a transient failure must not trip the breaker, and the
// caller-owned executor must never be closed by the orchestrator.
func TestExecutorSeam(t *testing.T) {
	dir := t.TempDir()
	plan := seamPlan()
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("seam plan expands to %d specs, want 4", len(specs))
	}
	flaky := specs[2].ID()

	stub := &stubExecutor{outcome: func(s RunSpec) SpecResult {
		if s.ID() == flaky {
			return SpecResult{
				Status:   StatusFailed,
				Err:      resilience.MarkTransient(errors.New("worker lost")),
				Attempts: 2,
			}
		}
		return SpecResult{
			Status:   StatusDone,
			Path:     filepath.Join(dir, s.ID()+caliper.FileExt),
			Attempts: 1,
		}
	}}

	res, err := Run(context.Background(), plan, Options{
		OutDir:   dir,
		Workers:  2,
		Breaker:  1, // must NOT trip: the one failure is transient
		Executor: stub,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 3 || res.Failed != 1 || res.Skipped != 0 {
		t.Fatalf("done %d failed %d skipped %d, want 3/1/0",
			res.Done, res.Failed, res.Skipped)
	}

	// Every spec reached the backend exactly once — a transient failure
	// must leave the breaker closed, so nothing was skipped pre-submit.
	stub.mu.Lock()
	submitted := append([]string(nil), stub.submits...)
	closes := stub.closes
	stub.mu.Unlock()
	if len(submitted) != len(specs) {
		t.Fatalf("backend saw %d submissions, want %d: %v",
			len(submitted), len(specs), submitted)
	}
	seen := make(map[string]int, len(submitted))
	for _, id := range submitted {
		seen[id]++
	}
	for _, s := range specs {
		if seen[s.ID()] != 1 {
			t.Errorf("spec %s submitted %d times, want 1", s.ID(), seen[s.ID()])
		}
	}
	if closes != 0 {
		t.Errorf("orchestrator closed a caller-owned executor %d times", closes)
	}

	// Canned results flow through bookkeeping verbatim, in plan order.
	for i, sr := range res.Specs {
		if sr.Spec.ID() != specs[i].ID() {
			t.Fatalf("result slot %d holds %s, want %s", i, sr.Spec.ID(), specs[i].ID())
		}
		if sr.Spec.ID() == flaky {
			if sr.Status != StatusFailed || sr.Attempts != 2 || !resilience.IsTransient(sr.Err) {
				t.Errorf("flaky spec recorded as %s/%d/%v", sr.Status, sr.Attempts, sr.Err)
			}
		} else if sr.Status != StatusDone || sr.Attempts != 1 {
			t.Errorf("%s recorded as %s/%d, want done/1", sr.Spec.ID(), sr.Status, sr.Attempts)
		}
	}

	// The record layer persisted the backend's outcomes.
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if done, failed := man.Counts(); done != 3 || failed != 1 {
		t.Fatalf("manifest counts %d done %d failed, want 3/1", done, failed)
	}
	fe, ok := man.Entries[flaky]
	if !ok {
		t.Fatalf("manifest missing failed spec %s", flaky)
	}
	if fe.Attempts != 2 || !strings.Contains(fe.Error, "worker lost") {
		t.Errorf("failed entry = %+v, want attempts 2 and the backend's error", fe)
	}
}

// TestExecutorSeamBreakerSkips verifies the breaker sits orchestrator-
// side of the seam: after a backend reports a non-transient failure for
// a (kernels, variant) key, the orchestrator must skip that key's
// remaining specs without submitting them at all.
func TestExecutorSeamBreakerSkips(t *testing.T) {
	plan := seamPlan() // 2 machines x 2 variants = 2 specs per breaker key
	stub := &stubExecutor{outcome: func(s RunSpec) SpecResult {
		return SpecResult{
			Status:   StatusFailed,
			Err:      errors.New("deterministic configuration error"),
			Attempts: 1,
		}
	}}

	res, err := Run(context.Background(), plan, Options{
		Workers:  1, // serial, so the second spec of each key sees the open circuit
		Breaker:  1,
		Executor: stub,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 || res.Skipped != 2 {
		t.Fatalf("failed %d skipped %d, want 2/2", res.Failed, res.Skipped)
	}
	stub.mu.Lock()
	submitted := len(stub.submits)
	stub.mu.Unlock()
	if submitted != 2 {
		t.Errorf("backend saw %d submissions, want 2 (one per breaker key)", submitted)
	}
	for _, sr := range res.Specs {
		if sr.Status == StatusSkipped && !strings.Contains(sr.Err.Error(), "circuit open") {
			t.Errorf("skipped spec %s error = %v, want circuit-open", sr.Spec.ID(), sr.Err)
		}
	}
}
