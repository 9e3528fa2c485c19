package campaign

// The chaos acceptance test: a small executed campaign under seeded
// fault injection — kernel panics, transient run errors, a hung lane, a
// torn journal append, a corrupted profile — killed mid-flight and then
// resumed. The resumed campaign must recover the directory, re-run only
// what is not durably complete, and converge on results identical to a
// fault-free campaign.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/resilience"
)

// chaosNormalize strips what may legitimately differ between a faulted
// and a fault-free campaign: run-varying metrics/metadata (normalize)
// plus the attempt ordinal consumed by retries.
func chaosNormalize(p *caliper.Profile) (map[string]map[string]float64, map[string]any) {
	recs, meta := normalize(p)
	delete(meta, "campaign.attempt")
	return recs, meta
}

func TestChaosCampaignKillAndResume(t *testing.T) {
	plan := healthyPlan(2)
	baseDir, chaosDir := t.TempDir(), t.TempDir()

	// Phase 0: the fault-free reference campaign, read back from disk so
	// both sides see the same JSON roundtrip.
	if res, err := Run(context.Background(), plan, Options{OutDir: baseDir, Workers: 2}); err != nil || res.Done != 4 {
		t.Fatalf("baseline campaign = %+v, %v", res, err)
	}
	baseline := map[string]*caliper.Profile{}
	if err := caliper.WalkDir(baseDir, func(_ string, r *caliper.Rows) error {
		baseline[r.Metadata["campaign.spec"].(string)] = r.Profile()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Phase 1: the faulted campaign, killed (ctx-canceled) after two
	// specs reach a terminal state. Count-mode faults keep the schedule
	// deterministic in aggregate: each fires exactly N times, whichever
	// worker gets there first.
	inj, err := resilience.ParseFaults(
		"kernel.panic:2,run.transient:3,lane.slow:1,manifest.torn:1,profile.corrupt:1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		OutDir:       chaosDir,
		Workers:      2,
		Retry:        resilience.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		StallTimeout: 200 * time.Millisecond,
		RunTimeout:   30 * time.Second,
		Faults:       inj,
	}
	ctx, cancel := context.WithCancel(context.Background())
	kill := opts
	finished := 0 // Progress calls are serialized by the orchestrator
	kill.Progress = func(Event) {
		if finished++; finished == 2 {
			cancel()
		}
	}
	res1, err := Run(ctx, plan, kill)
	cancel()
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("killed campaign error = %v, want context.Canceled", err)
	}
	if res1.Failed != 0 {
		// Retries must have absorbed every injected failure that reached
		// a terminal state before the kill.
		for _, sr := range res1.Specs {
			if sr.Status == StatusFailed {
				t.Fatalf("spec %s terminally failed under retry budget: %v", sr.Spec.ID(), sr.Err)
			}
		}
	}
	corruptFired := inj.Fired(resilience.FaultCorruptProfile)

	// Litter the directory the way a real crash does: a stale atomic-write
	// temp and a journal append cut off mid-record.
	if err := os.WriteFile(filepath.Join(chaosDir, "stale"+caliper.FileExt+".tmp99"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	wal, err := os.OpenFile(JournalPath(chaosDir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte("\n{\"id\":\"cut-mid-app")); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	// Phase 2: resume with the same injector (remaining fault budget, if
	// any, keeps firing) and run to completion.
	resume := opts
	resume.Resume = true
	res2, err := Run(context.Background(), plan, resume)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Done+res2.Resumed != 4 || res2.Failed != 0 || res2.TimedOut != 0 || res2.Skipped != 0 {
		t.Fatalf("resumed campaign: done %d resumed %d failed %d timed_out %d skipped %d",
			res2.Done, res2.Resumed, res2.Failed, res2.TimedOut, res2.Skipped)
	}
	rep := res2.Recovered
	if rep == nil {
		t.Fatal("resume did not run crash recovery")
	}
	if len(rep.TempRemoved) == 0 {
		t.Errorf("recovery did not sweep the stale temp file: %+v", rep)
	}
	if rep.JournalTorn == 0 {
		t.Errorf("recovery did not notice the torn journal tail: %+v", rep)
	}
	if corruptFired > 0 && len(rep.Quarantined) == 0 {
		t.Errorf("profile.corrupt fired %d times before the kill but nothing was quarantined: %+v",
			corruptFired, rep)
	}

	// Every fault point armed with a count must have fully fired across
	// the two phases — the injection schedule is part of the test.
	for _, pt := range []string{
		resilience.FaultKernelPanic, resilience.FaultRunTransient,
		resilience.FaultSlowLane, resilience.FaultTornManifest, resilience.FaultCorruptProfile,
	} {
		if inj.Fired(pt) == 0 {
			t.Errorf("fault %s never fired", pt)
		}
	}

	// The final directory is indistinguishable from a healthy campaign's:
	// full spec coverage in the manifest, attempt counts within budget,
	// profiles all decodable, contents equal to the fault-free run.
	man, err := LoadManifest(chaosDir)
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := plan.Specs()
	for _, s := range specs {
		e, ok := man.Entries[s.ID()]
		if !ok || e.Status != StatusDone {
			t.Fatalf("spec %s not durably done after resume: %+v", s.ID(), e)
		}
		if e.Attempts < 1 || e.Attempts > opts.Retry.MaxAttempts {
			t.Errorf("spec %s consumed %d attempts, budget %d", s.ID(), e.Attempts, opts.Retry.MaxAttempts)
		}
	}
	ps, err := caliper.ReadDir(chaosDir)
	if err != nil {
		t.Fatalf("recovered directory still holds broken profiles: %v", err)
	}
	if len(ps) != 4 {
		t.Fatalf("recovered directory holds %d profiles, want 4", len(ps))
	}
	for _, p := range ps {
		id := p.Metadata["campaign.spec"].(string)
		bp, ok := baseline[id]
		if !ok {
			t.Fatalf("no baseline for %s", id)
		}
		fRecs, fMeta := chaosNormalize(p)
		bRecs, bMeta := chaosNormalize(bp)
		if !reflect.DeepEqual(fRecs, bRecs) {
			t.Errorf("%s: faulted campaign records differ from fault-free run", id)
		}
		if !reflect.DeepEqual(fMeta, bMeta) {
			t.Errorf("%s: faulted campaign metadata differs from fault-free run:\n%v\n%v", id, fMeta, bMeta)
		}
	}

	// Phase 3: a second resume re-runs nothing — every validated spec is
	// durably complete, so recovery and resume are idempotent.
	res3, err := Run(context.Background(), plan, Options{OutDir: chaosDir, Workers: 2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Done != 0 || res3.Resumed != 4 {
		t.Fatalf("second resume re-ran specs: done %d resumed %d, want 0/4", res3.Done, res3.Resumed)
	}
}
