package campaign

// Orchestrator resilience behavior: retry/backoff on transient failures,
// watchdog timeouts marking runs timed_out (and retrying them), and the
// circuit breaker skipping work that keeps failing non-transitively.

import (
	"context"
	"strings"
	"testing"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/resilience"
)

func mustReadProfile(t *testing.T, path string) *caliper.Profile {
	t.Helper()
	p, err := caliper.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// healthyPlan is a small executed campaign with no misbehaving kernels:
// the baseline the resilience machinery must converge to under faults.
func healthyPlan(workers int) Plan {
	return Plan{
		Machines: []string{"SPR-DDR", "SPR-HBM"},
		Variants: []string{"RAJA_Seq", "RAJA_OpenMP"},
		Sizes:    []int{10_000},
		Reps:     1,
		Workers:  workers,
		Kernels:  []string{"Stream_TRIAD", "Stream_DOT", "Stream_ADD"},
		Execute:  true,
	}
}

func TestRetryTransientRecordsAttempts(t *testing.T) {
	dir := t.TempDir()
	// The first two attempts (across the campaign) fail transiently; with
	// serial workers that is attempts 1 and 2 of the first spec.
	inj, err := resilience.ParseFaults("run.transient:2")
	if err != nil {
		t.Fatal(err)
	}
	plan := healthyPlan(1)
	plan.Machines = []string{"SPR-DDR"}
	plan.Variants = []string{"RAJA_Seq"}
	res, err := Run(context.Background(), plan, Options{
		OutDir:  dir,
		Workers: 1,
		Retry:   resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		Faults:  inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 1 || res.Failed != 0 {
		t.Fatalf("done %d failed %d, want 1/0", res.Done, res.Failed)
	}
	if got := res.Specs[0].Attempts; got != 3 {
		t.Errorf("attempts = %d, want 3 (two injected transients + one success)", got)
	}
	// Attempts persist in the manifest and in the profile metadata.
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := man.Entries[res.Specs[0].Spec.ID()]
	if e.Attempts != 3 || e.Status != StatusDone {
		t.Errorf("manifest entry = %+v, want 3 attempts, done", e)
	}
	p := mustReadProfile(t, res.Specs[0].Path)
	if got, _ := p.Metadata["campaign.attempt"].(float64); got != 3 {
		t.Errorf("campaign.attempt = %v, want 3", p.Metadata["campaign.attempt"])
	}
}

func TestTransientFailureExhaustsAttempts(t *testing.T) {
	// Every attempt fails transiently: the spec ends failed with the full
	// attempt budget consumed, and the campaign still completes.
	inj, err := resilience.ParseFaults("run.transient:1.0")
	if err != nil {
		t.Fatal(err)
	}
	plan := healthyPlan(1)
	plan.Machines = []string{"SPR-DDR"}
	plan.Variants = []string{"RAJA_Seq"}
	res, err := Run(context.Background(), plan, Options{
		Workers: 1,
		Retry:   resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Faults:  inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Specs[0]
	if sr.Status != StatusFailed || sr.Attempts != 3 {
		t.Errorf("spec = %s after %d attempts, want failed after 3", sr.Status, sr.Attempts)
	}
	if !resilience.IsTransient(sr.Err) {
		t.Errorf("terminal error lost its transient marker: %v", sr.Err)
	}
}

func TestWatchdogMarksTimedOutAndRetries(t *testing.T) {
	dir := t.TempDir()
	// One injected hung kernel; the stall watchdog must cancel that
	// attempt (heartbeat frozen), mark it timed_out, and the retry must
	// complete the spec cleanly.
	inj, err := resilience.ParseFaults("lane.slow:1")
	if err != nil {
		t.Fatal(err)
	}
	plan := healthyPlan(1)
	plan.Machines = []string{"SPR-DDR"}
	plan.Variants = []string{"RAJA_Seq"}
	res, err := Run(context.Background(), plan, Options{
		OutDir:       dir,
		Workers:      1,
		Retry:        resilience.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		StallTimeout: 150 * time.Millisecond,
		Faults:       inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Specs[0]
	if sr.Status != StatusDone || sr.Attempts != 2 {
		t.Fatalf("spec = %s after %d attempts (err %v), want done after 2", sr.Status, sr.Attempts, sr.Err)
	}
	if res.TimedOut != 0 {
		t.Errorf("TimedOut = %d after successful retry, want 0", res.TimedOut)
	}
}

func TestWatchdogTerminalTimeout(t *testing.T) {
	dir := t.TempDir()
	// No retry budget: the hung attempt is terminal and lands in the
	// manifest as timed_out — a resumable, diagnosable state instead of a
	// wedged campaign worker.
	inj, err := resilience.ParseFaults("lane.slow:1")
	if err != nil {
		t.Fatal(err)
	}
	plan := healthyPlan(1)
	plan.Machines = []string{"SPR-DDR"}
	plan.Variants = []string{"RAJA_Seq"}
	start := time.Now()
	res, err := Run(context.Background(), plan, Options{
		OutDir:       dir,
		Workers:      1,
		StallTimeout: 150 * time.Millisecond,
		Faults:       inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Fatalf("timed-out run wedged the campaign for %v", took)
	}
	sr := res.Specs[0]
	if sr.Status != StatusTimedOut || res.TimedOut != 1 {
		t.Fatalf("spec = %s (TimedOut %d), want timed_out", sr.Status, res.TimedOut)
	}
	if res.Err() == nil {
		t.Error("Result.Err must surface timed-out specs")
	}
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e := man.Entries[sr.Spec.ID()]; e.Status != StatusTimedOut {
		t.Errorf("manifest status = %s, want timed_out", e.Status)
	}

	// Resume without faults re-runs exactly the timed-out spec.
	res2, err := Run(context.Background(), plan, Options{OutDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Done != 1 || res2.Resumed != 0 {
		t.Errorf("resume after timeout: done %d resumed %d, want 1/0", res2.Done, res2.Resumed)
	}
}

func TestBreakerSkipsRepeatOffenders(t *testing.T) {
	dir := t.TempDir()
	// Every spec shares a kernel set that cannot even instantiate — a
	// deterministic, non-transient failure under one breaker key (same
	// kernels, same variant). With threshold 2 and serial workers, specs
	// 3 and 4 must be skipped, not run.
	plan := Plan{
		Machines: []string{"SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X"},
		Variants: []string{"RAJA_Seq"},
		Sizes:    []int{1000},
		Kernels:  []string{"No_Such_Kernel"},
	}
	res, err := Run(context.Background(), plan, Options{
		OutDir:  dir,
		Workers: 1,
		Breaker: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 || res.Skipped != 2 {
		t.Fatalf("failed %d skipped %d, want 2/2", res.Failed, res.Skipped)
	}
	var sawReason bool
	for _, sr := range res.Specs {
		if sr.Status == StatusSkipped {
			if sr.Err == nil || !strings.Contains(sr.Err.Error(), "circuit open") {
				t.Errorf("%s skipped without a reason: %v", sr.Spec.ID(), sr.Err)
			} else {
				sawReason = true
			}
		}
	}
	if !sawReason {
		t.Fatal("no skip reason recorded")
	}
	// Skip reasons persist in the manifest.
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, e := range man.Entries {
		if e.Status == StatusSkipped {
			skipped++
			if !strings.Contains(e.Error, "circuit open") {
				t.Errorf("manifest skip entry lacks the reason: %q", e.Error)
			}
		}
	}
	if skipped != 2 {
		t.Errorf("manifest records %d skipped specs, want 2", skipped)
	}
}
