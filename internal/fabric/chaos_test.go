package fabric

// Self-healing acceptance: worker.crash events, respawn supervision,
// the heartbeat stall watchdog, and graceful drain. The headline test is
// the DESIGN.md crash drill — a 4-worker campaign with two worker
// crashes must converge to the same normalized profiles as a fault-free
// single-process run, with every crashed worker respawned and full fleet
// capacity restored.

import (
	"context"
	"net"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/resilience"
	"rajaperf/internal/telemetry"
)

// TestChaosConvergence is the crash drill: two worker.crash events kill
// the workers the first two assignments land on — and the campaign must
// still produce exactly the fault-free result. Run under -race in CI.
func TestChaosConvergence(t *testing.T) {
	plan := testPlan()
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}

	// The fault-free oracle.
	soloDir := t.TempDir()
	soloRes, err := campaign.Run(context.Background(), plan, campaign.Options{
		OutDir: soloDir, Workers: 1, Metrics: new(telemetry.Registry),
	})
	if err != nil {
		t.Fatal(err)
	}
	if soloRes.Done != len(specs) {
		t.Fatalf("solo campaign: %d done, want %d", soloRes.Done, len(specs))
	}

	// The drill: worker.crash is decided coordinator-side, at dispatch.
	inj, err := resilience.ParseFaults("worker.crash:2,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{
		Workers:  4,
		Worker:   WorkerConfig{OutDir: dir, HeartbeatEvery: 100 * time.Millisecond},
		Campaign: dir,
		Metrics:  new(telemetry.Registry),
		Faults:   inj,
		Respawn: resilience.Policy{MaxAttempts: 10,
			BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}
	f := startFleet(t, cfg)
	res, err := campaign.Run(context.Background(), plan, campaign.Options{
		OutDir: dir, Workers: 4, Executor: f.coord,
		Campaign: dir, Metrics: cfg.Metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != len(specs) || res.Failed != 0 {
		t.Fatalf("chaos campaign did not converge: %d done, %d failed of %d",
			res.Done, res.Failed, len(specs))
	}

	// Every crashed worker respawned and the fleet back at full strength.
	// Supervision respawns after a backoff, so the campaign may converge
	// on the surviving workers first.
	deadline := time.Now().Add(15 * time.Second)
	for f.coord.Respawns() < 2 || f.coord.LiveWorkers() < cfg.Workers {
		if time.Now().After(deadline) {
			t.Fatalf("fleet not restored: respawns = %d, want >= 2 (worker.crash:2 killed two workers); %d of %d workers live",
				f.coord.Respawns(), f.coord.LiveWorkers(), cfg.Workers)
		}
		time.Sleep(20 * time.Millisecond)
	}
	f.stop()
	if _, _, err := campaign.FinalizeShards(dir); err != nil {
		t.Fatal(err)
	}

	// Fault-free equivalence: same manifest, same normalized profiles.
	soloMan, err := campaign.LoadManifest(soloDir)
	if err != nil {
		t.Fatal(err)
	}
	chaosMan, err := campaign.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(soloMan.Entries) != len(chaosMan.Entries) {
		t.Fatalf("manifest sizes differ: solo %d, chaos %d",
			len(soloMan.Entries), len(chaosMan.Entries))
	}
	for id, se := range soloMan.Entries {
		ce, ok := chaosMan.Entries[id]
		if !ok {
			t.Fatalf("chaos manifest missing %s", id)
		}
		if se.Status != ce.Status || se.File != ce.File {
			t.Fatalf("%s: solo %s/%s vs chaos %s/%s", id, se.Status, se.File, ce.Status, ce.File)
		}
		sp, err := caliper.ReadFile(soloDir + "/" + se.File)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := caliper.ReadFile(dir + "/" + ce.File)
		if err != nil {
			t.Fatal(err)
		}
		sRecs, sMeta := normalize(sp)
		cRecs, cMeta := normalize(cp)
		if !reflect.DeepEqual(sRecs, cRecs) {
			t.Errorf("%s: records differ between fault-free and crash-drill runs", id)
		}
		if !reflect.DeepEqual(sMeta, cMeta) {
			t.Errorf("%s: metadata differs between fault-free and crash-drill runs:\n%v\n%v",
				id, sMeta, cMeta)
		}
	}
}

// TestWorkerRespawn: SIGKILL the only worker; supervision must respawn
// it within the restart budget, and the respawned worker must actually
// execute work.
func TestWorkerRespawn(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers:  1,
		Worker:   WorkerConfig{OutDir: dir},
		Campaign: dir,
		Metrics:  new(telemetry.Registry),
		Respawn: resilience.Policy{MaxAttempts: 5,
			BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}
	f := startFleet(t, cfg)

	if err := f.process(0).Kill(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(15 * time.Second)
	for f.coord.Respawns() < 1 || f.coord.LiveWorkers() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no respawn within 15s: respawns=%d live=%d",
				f.coord.Respawns(), f.coord.LiveWorkers())
		}
		time.Sleep(10 * time.Millisecond)
	}

	specs, err := testPlan().Specs()
	if err != nil {
		t.Fatal(err)
	}
	sr := f.coord.Submit(context.Background(), specs[0])
	if sr.Status != campaign.StatusDone {
		t.Fatalf("respawned worker: %s result %s (%v)", specs[0].ID(), sr.Status, sr.Err)
	}
	f.stop()
}

// TestStalledWorkerRedispatch: SIGSTOP the worker while it holds a
// spec in flight. Its socket stays open, so only the heartbeat stall
// watchdog can notice; the spec must then finish on the other worker.
func TestStalledWorkerRedispatch(t *testing.T) {
	plan := testPlan()
	plan.Machines = []string{"SPR-DDR"}
	plan.Variants = []string{"RAJA_Seq"}
	plan.Kernels = []string{"Stream_TRIAD"}
	plan.Sizes = []int{5_000_000}
	plan.Reps = 10_000 // chunky (~0.3 s): still running when the stop lands
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	reg := new(telemetry.Registry)
	cfg := Config{
		Workers:     2,
		Worker:      WorkerConfig{OutDir: dir, HeartbeatEvery: 50 * time.Millisecond},
		Campaign:    dir,
		Metrics:     reg,
		Assign:      func(string, int) int { return 0 }, // the spec homes to shard 0
		WorkerStall: time.Second,
	}
	f := startFleet(t, cfg)
	w0 := f.process(0)
	t.Cleanup(func() { w0.Kill() }) // a stopped process never reads its EOF

	// Worker 0 is free and owns the home queue, so the assign lands there.
	done := make(chan campaign.SpecResult, 1)
	go func() { done <- f.coord.Submit(context.Background(), specs[0]) }()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("fabric.assigned", "shard", "0").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("spec never dispatched to shard 0")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // the worker reads the assign and starts
	if err := w0.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}

	select {
	case sr := <-done:
		if sr.Status != campaign.StatusDone {
			t.Fatalf("stalled worker's spec: %s (%v)", sr.Status, sr.Err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stalled worker's spec never resolved")
	}
	if got := f.coord.Redispatches(); got < 1 {
		t.Errorf("redispatches = %d, want >= 1 (worker 0 stalled mid-spec)", got)
	}
	sums, err := campaign.ShardSummaries(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sums {
		if s.Shard == 1 && s.Records == 1 {
			return
		}
	}
	t.Errorf("the spec did not finish on worker 1: %+v", sums)
}

// TestDrainFinishesInFlight: a drain landing while every spec is in
// flight lets them run to completion (no work lost, no work canceled),
// refuses new submissions, and leaves a directory a resume re-runs
// nothing over.
func TestDrainFinishesInFlight(t *testing.T) {
	plan := testPlan()
	plan.Machines = []string{"SPR-DDR"}
	plan.Variants = []string{"RAJA_Seq"}
	plan.Kernels = []string{"Stream_TRIAD"}
	plan.Sizes = []int{500_000, 750_000}
	plan.Reps = 20_000 // chunky: provably mid-flight when the drain lands
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("want a 2-spec plan, got %d", len(specs))
	}

	dir := t.TempDir()
	bus := new(telemetry.Bus)
	cfg := Config{Workers: 2, Worker: WorkerConfig{OutDir: dir},
		Campaign: dir, Metrics: new(telemetry.Registry), Bus: bus}
	f := startFleet(t, cfg)

	running := make(chan struct{}, 8)
	sub := bus.Subscribe(64, 0)
	go func() {
		for ev := range sub.C {
			if ev.Type == "run" && ev.Status == "running" {
				running <- struct{}{}
			}
		}
	}()

	resCh := make(chan *campaign.Result, 1)
	go func() {
		res, err := campaign.Run(context.Background(), plan, campaign.Options{
			OutDir: dir, Workers: 2, Executor: f.coord,
			Campaign: dir, Metrics: cfg.Metrics, Bus: bus,
		})
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-running:
		case <-time.After(20 * time.Second):
			t.Fatal("specs never started")
		}
	}
	time.Sleep(100 * time.Millisecond) // both Submits reach the fleet

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.coord.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res := <-resCh
	sub.Close()
	if res == nil {
		t.Fatal("campaign returned no result")
	}
	if res.Done != len(specs) {
		t.Fatalf("drain lost in-flight work: %d done of %d", res.Done, len(specs))
	}

	// Post-drain submissions are refused at a spec boundary.
	if sr := f.coord.Submit(context.Background(), specs[0]); sr.Status != campaign.StatusCanceled {
		t.Errorf("post-drain submit: %s, want canceled", sr.Status)
	}
	f.stop()
	if _, _, err := campaign.FinalizeShards(dir); err != nil {
		t.Fatal(err)
	}

	// The drained directory resumes with zero re-runs.
	res2, err := campaign.Run(context.Background(), plan, campaign.Options{
		OutDir: dir, Workers: 2, Resume: true, Metrics: new(telemetry.Registry),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != len(specs) || res2.Done != 0 {
		t.Fatalf("resume after drain re-ran work: %d resumed, %d done, want %d/0",
			res2.Resumed, res2.Done, len(specs))
	}
}

// TestDrainCancelsQueued: with one worker and three outstanding specs,
// a drain finishes the dispatched spec, cancels the two still queued,
// and a resume re-runs exactly the canceled pair.
func TestDrainCancelsQueued(t *testing.T) {
	plan := testPlan()
	plan.Machines = []string{"SPR-DDR"}
	plan.Variants = []string{"RAJA_Seq"}
	plan.Kernels = []string{"Stream_TRIAD"}
	plan.Sizes = []int{500_000, 750_000, 1_000_000}
	plan.Reps = 20_000
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("want a 3-spec plan, got %d", len(specs))
	}

	dir := t.TempDir()
	bus := new(telemetry.Bus)
	cfg := Config{Workers: 1, Worker: WorkerConfig{OutDir: dir},
		Campaign: dir, Metrics: new(telemetry.Registry), Bus: bus}
	f := startFleet(t, cfg)

	running := make(chan struct{}, 8)
	sub := bus.Subscribe(64, 0)
	go func() {
		for ev := range sub.C {
			if ev.Type == "run" && ev.Status == "running" {
				running <- struct{}{}
			}
		}
	}()
	resCh := make(chan *campaign.Result, 1)
	go func() {
		res, err := campaign.Run(context.Background(), plan, campaign.Options{
			OutDir: dir, Workers: 3, Executor: f.coord,
			Campaign: dir, Metrics: cfg.Metrics, Bus: bus,
		})
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()
	for i := 0; i < 3; i++ {
		select {
		case <-running:
		case <-time.After(20 * time.Second):
			t.Fatal("specs never started")
		}
	}
	time.Sleep(20 * time.Millisecond) // the first spec dispatches; the rest queue

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.coord.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res := <-resCh
	sub.Close()
	if res == nil {
		t.Fatal("campaign returned no result")
	}
	canceled := 0
	for _, sr := range res.Specs {
		if sr.Status == campaign.StatusCanceled {
			canceled++
		}
	}
	// The exact split depends on how many specs finished before the drain
	// landed; the invariants do not: at least one spec was still queued
	// (canceled), the in-flight one finished, and nothing failed.
	if canceled < 1 || res.Done < 1 || res.Done+canceled != len(specs) {
		t.Fatalf("drain split wrong: %d done, %d canceled of %d", res.Done, canceled, len(specs))
	}
	f.stop()
	if _, _, err := campaign.FinalizeShards(dir); err != nil {
		t.Fatal(err)
	}

	// Resume re-runs exactly the canceled set — the drained work is
	// durable, the undispatched work is not.
	res2, err := campaign.Run(context.Background(), plan, campaign.Options{
		OutDir: dir, Workers: 1, Resume: true, Metrics: new(telemetry.Registry),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != res.Done || res2.Done != canceled {
		t.Fatalf("resume after partial drain: %d resumed, %d done, want %d/%d",
			res2.Resumed, res2.Done, res.Done, canceled)
	}
}

// TestWorkerRejectsForeignCoordinator: a worker refuses a welcome from
// a coordinator speaking another protocol version — a respawn runs the
// binary from disk again, which may have been rebuilt mid-campaign.
func TestWorkerRejectsForeignCoordinator(t *testing.T) {
	t.Run("protocol skew", func(t *testing.T) {
		coord, worker := net.Pipe()
		defer coord.Close()
		go writeFrame(coord, &frame{Type: frameWelcome, Proto: protoVersion + 1, Config: &WorkerConfig{}})
		err := RunWorker(context.Background(), worker)
		if err == nil || !strings.Contains(err.Error(), "protocol") {
			t.Fatalf("worker accepted a protocol v%d welcome: err = %v", protoVersion+1, err)
		}
	})
}
