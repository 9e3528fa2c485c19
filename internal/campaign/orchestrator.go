package campaign

// The execute layer: a bounded worker pool of campaign workers, each
// pulling specs off a shared feed and submitting them to the campaign's
// execution backend (Executor, executor.go). The default backend is the
// in-process LocalExecutor, which drives each spec through
// suite.RunContext: every in-flight run owns a private raja.Pool sized to
// its share of the machine, so concurrently executing kernels never
// contend for executor lanes; fault isolation is two-level (a failing
// kernel is recorded inside its profile by the suite layer, a failing run
// is recorded in the manifest by this layer and the campaign continues).
// A distributed campaign swaps in fabric.Coordinator via
// Options.Executor; the orchestrator's planning, resume, breaker, and
// record semantics are backend-independent.
//
// On top of that isolation sits the resilience layer:
//
//   - transiently-failed runs retry with exponential backoff + jitter
//     (Options.Retry), attempts recorded in the manifest and profile;
//   - every attempt runs under a watchdog (Options.RunTimeout /
//     StallTimeout) that samples the run's executor heartbeat and cancels
//     a hung run, marking it timed_out instead of wedging the worker;
//   - a per-(kernel set, variant) circuit breaker (Options.Breaker) stops
//     rescheduling work that keeps failing non-transiently, marking the
//     remaining specs skipped with the open-circuit reason;
//   - spec outcomes journal to a fsynced write-ahead log between manifest
//     checkpoints (journal.go), and resume starts with full crash
//     recovery (Recover).

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/raja"
	"rajaperf/internal/resilience"
	"rajaperf/internal/suite"
	"rajaperf/internal/telemetry"
)

// Status is the terminal state of one spec within a campaign.
type Status string

const (
	// StatusDone: the run completed and its profile was recorded.
	StatusDone Status = "done"
	// StatusFailed: the run aborted (configuration error, model error,
	// or a failed profile write); the campaign continued.
	StatusFailed Status = "failed"
	// StatusResumed: a previous campaign already completed this spec and
	// its profile validated, so it was skipped (-resume).
	StatusResumed Status = "resumed"
	// StatusCanceled: the campaign's context was canceled before or
	// while this spec ran.
	StatusCanceled Status = "canceled"
	// StatusTimedOut: the run's watchdog canceled it — deadline exceeded
	// or executor heartbeat stalled — after its last allowed attempt.
	StatusTimedOut Status = "timed_out"
	// StatusSkipped: the spec's circuit breaker was open (too many
	// consecutive non-transient failures under the same kernel set and
	// variant), so it was never scheduled.
	StatusSkipped Status = "skipped"
)

// Options configures a campaign execution.
type Options struct {
	// OutDir receives one profile file per completed spec plus the
	// manifest, streamed as each run finishes. Empty disables the record
	// layer (useful for in-memory collection with Retain).
	OutDir string
	// Workers bounds how many specs run concurrently (<=1 = serial).
	Workers int
	// Resume skips specs whose manifest entry is done and whose recorded
	// profile still validates (see Manifest.Completed). It begins with
	// crash recovery over OutDir: journal replay, stale temp-file sweep,
	// and quarantine of undecodable profiles (Recover).
	Resume bool
	// Retain keeps each completed profile in its SpecResult, for callers
	// composing in memory (analysis.Session). Off by default so large
	// campaigns stream to disk without accumulating every run.
	Retain bool
	// Progress, when non-nil, receives one event per finished spec,
	// serialized by the orchestrator's bookkeeping lock.
	Progress func(Event)

	// Retry governs re-running transiently-failed specs: injected or
	// organic transient run errors, watchdog cancellations, and completed
	// runs whose profile records failed kernels. The zero value means one
	// attempt, no retry.
	Retry resilience.Policy
	// RunTimeout is each attempt's hard wall-clock deadline (0 = none).
	RunTimeout time.Duration
	// StallTimeout cancels an attempt whose executor heartbeat (pool
	// granules + kernel boundaries) stops advancing for this long
	// (0 = stall detection off). An attempt still running 2 s after its
	// cancellation is abandoned (runGrace).
	StallTimeout time.Duration
	// Breaker opens a (kernel set, variant) circuit after this many
	// consecutive non-transient failures, skipping its remaining specs
	// (0 = no breaker).
	Breaker int
	// Faults is the deterministic fault injector threaded through the
	// run stack (resilience.ParseFaults). Nil — the production value —
	// injects nothing.
	Faults *resilience.Injector

	// Executor is the execution backend Submit()ing each spec. Nil — the
	// default — executes in-process (LocalExecutor) with the retry,
	// watchdog, and record semantics above. A non-nil Executor (e.g. the
	// distributed fabric coordinator) is owned by the caller: the
	// orchestrator drives it but never closes it, and the per-spec
	// execution options (Retry, timeouts, Faults, OutDir) are the
	// backend's to honor — the fabric forwards them to its workers.
	Executor Executor

	// Metrics is the registry campaign metrics record into (nil =
	// telemetry.Default(), the registry the CLIs expose on /metrics).
	Metrics *telemetry.Registry
	// Bus, when non-nil, receives the live event stream: one "campaign"
	// event at start and end, one "run" event per spec status transition,
	// and periodic "heartbeat" events. The bus — not stderr — is the
	// source of truth for progress; the CLI progress printer and every
	// /events SSE client are subscribers of the same stream.
	Bus *telemetry.Bus
	// Campaign is the identity stamped on bus events and flushed
	// telemetry profiles (default: OutDir, or "campaign" when in-memory).
	Campaign string
}

// Event is one progress notification.
type Event struct {
	Spec    RunSpec
	Status  Status
	Elapsed time.Duration
}

// SpecResult is the terminal record of one spec.
type SpecResult struct {
	Spec    RunSpec
	Status  Status
	Err     error
	Path    string           // profile file path when recorded
	Profile *caliper.Profile // retained profile when Options.Retain
	Elapsed time.Duration
	// Attempts is how many run attempts were consumed (retry policy).
	Attempts int
	// KernelsFailed is the completed profile's kernels_failed count.
	KernelsFailed int
}

// Entry is the manifest record of a terminal result: the shape both the
// root WAL and the fabric's shard WALs journal, so the shard merge
// reconciles them field by field.
func (sr SpecResult) Entry() ManifestEntry {
	e := ManifestEntry{
		Spec:     sr.Spec,
		Status:   sr.Status,
		WallSec:  sr.Elapsed.Seconds(),
		Attempts: sr.Attempts,
	}
	if sr.Path != "" {
		e.File = filepath.Base(sr.Path)
	}
	if sr.Err != nil {
		e.Error = sr.Err.Error()
	}
	return e
}

// Result summarizes a campaign.
type Result struct {
	Specs    []SpecResult // one per plan spec, in plan order
	Done     int          // ran to completion this campaign
	Resumed  int          // skipped as already complete
	Failed   int
	TimedOut int
	Skipped  int
	Elapsed  time.Duration
	// Recovered reports what crash recovery repaired before a resumed
	// campaign started (nil unless Options.Resume with an OutDir).
	Recovered *RecoveryReport
}

// Err returns an error summarizing failed specs, or nil if none failed.
func (r *Result) Err() error {
	bad := r.Failed + r.TimedOut + r.Skipped
	if bad == 0 {
		return nil
	}
	for _, sr := range r.Specs {
		switch sr.Status {
		case StatusFailed, StatusTimedOut, StatusSkipped:
			return fmt.Errorf("campaign: %d of %d specs failed, first: %s: %w",
				bad, len(r.Specs), sr.Spec.ID(), sr.Err)
		}
	}
	return nil
}

// isManifestStatus reports whether a spec outcome is persisted in the
// manifest. Resumed specs already have their entry; canceled specs must
// stay absent so a resume re-runs them.
func isManifestStatus(s Status) bool {
	switch s {
	case StatusDone, StatusFailed, StatusTimedOut, StatusSkipped:
		return true
	}
	return false
}

// breakerKey groups specs whose failures are evidence about each other:
// same kernel set under the same variant. Machines, sizes, and schedules
// share the key — a kernel that cannot even configure or deterministically
// panics does so everywhere.
func breakerKey(s RunSpec) string {
	k := "suite"
	if len(s.Kernels) > 0 {
		k = strings.Join(s.Kernels, "+")
	}
	return s.Variant + "/" + k
}

// idHash seeds a spec's deterministic backoff jitter from its identity.
func idHash(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// Run executes the plan: expand, skip what a previous campaign already
// recorded (Resume, after crash recovery), run the remainder on Workers
// concurrent runners with per-spec retry/watchdog/breaker handling, and
// stream profiles + journaled manifest updates to OutDir as specs finish.
// One spec failing never aborts the campaign. Cancellation via ctx stops
// feeding new specs, waits for in-flight runs to notice (the suite checks
// between kernels; runGrace bounds the wait), marks the rest canceled, and
// returns ctx's cause alongside the partial result — which a later Resume
// picks up, replaying the journal.
func Run(ctx context.Context, plan Plan, opts Options) (*Result, error) {
	specs, err := plan.Specs()
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, errors.New("campaign: plan expands to zero specs (over-filtered?)")
	}

	tele := newCampaignTele(opts.Metrics)
	campID := opts.Campaign
	if campID == "" {
		campID = opts.OutDir
	}
	if campID == "" {
		campID = "campaign"
	}

	man := NewManifest()
	var jl *journal
	res := &Result{Specs: make([]SpecResult, len(specs))}
	if opts.OutDir != "" {
		if opts.Resume {
			var rep *RecoveryReport
			if man, rep, err = Recover(opts.OutDir); err != nil {
				return nil, err
			}
			res.Recovered = rep
			tele.recordRecovery(rep)
		} else {
			// Surface an unwritable output directory before running
			// anything, and drop any journal a previous campaign left.
			if err := man.Write(opts.OutDir); err != nil {
				return nil, err
			}
			if err := os.Remove(JournalPath(opts.OutDir)); err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("campaign: %w", err)
			}
		}
		if jl, err = openJournal(opts.OutDir); err != nil {
			return nil, err
		}
		jl.tele = tele.wal()
		defer jl.Close()
	}

	start := time.Now()
	finished := 0

	// The live event stream: campaign start, per-spec transitions (in
	// record below), periodic heartbeats, campaign end. All nil-safe.
	opts.Bus.Publish(telemetry.Event{
		Type: "campaign", Campaign: campID, Status: "started", Total: len(specs),
	})
	var finishedA atomic.Int64
	hbStop := make(chan struct{})
	heartbeats(opts.Bus, campID, func() (int, int, int) {
		return int(finishedA.Load()), len(specs), int(tele.inFlight.Value())
	}, hbStop)
	defer close(hbStop)

	// Bookkeeping shared by the runners: journal appends, manifest
	// compaction, result slots, and progress events are serialized under
	// one lock.
	var mu sync.Mutex
	record := func(i int, sr SpecResult) {
		mu.Lock()
		defer mu.Unlock()
		res.Specs[i] = sr
		finished++
		switch sr.Status {
		case StatusDone:
			res.Done++
		case StatusResumed:
			res.Resumed++
		case StatusFailed:
			res.Failed++
		case StatusTimedOut:
			res.TimedOut++
		case StatusSkipped:
			res.Skipped++
		}
		if opts.OutDir != "" && isManifestStatus(sr.Status) {
			e := sr.Entry()
			man.Entries[sr.Spec.ID()] = e
			if err := jl.Append(sr.Spec.ID(), e, opts.Faults); err != nil {
				if sr.Status == StatusDone {
					// A completed run whose durability point cannot be
					// reached must not claim to be resumable.
					res.Specs[i].Status = StatusFailed
					res.Specs[i].Err = err
					res.Done--
					res.Failed++
				}
			} else if jl.appends >= walCompactEvery {
				// Fold the journal into the checkpoint; on a failed
				// checkpoint write the journal simply keeps growing.
				if man.Write(opts.OutDir) == nil {
					jl.Reset()
				}
			}
		}
		sr = res.Specs[i]
		finishedA.Store(int64(finished))
		tele.recordOutcome(sr)
		publishRun(opts.Bus, campID, sr, finished, len(specs))
		if opts.Progress != nil {
			opts.Progress(Event{Spec: sr.Spec, Status: sr.Status, Elapsed: sr.Elapsed})
		}
	}

	// Resume pass: specs a previous campaign completed (profile present
	// and valid) are terminal immediately and never reach the runners.
	var todo []int
	for i, s := range specs {
		if opts.Resume && opts.OutDir != "" && man.Completed(opts.OutDir, s) {
			record(i, SpecResult{
				Spec:   s,
				Status: StatusResumed,
				Path:   filepath.Join(opts.OutDir, man.Entries[s.ID()].File),
			})
			continue
		}
		todo = append(todo, i)
	}

	workers := min(max(opts.Workers, 1), max(len(todo), 1))
	lanes := max(1, runtime.NumCPU()/workers)
	br := resilience.NewBreaker(opts.Breaker)

	// The execution backend: the caller's (distributed fabric, a test
	// double) or the default in-process executor sharing this campaign's
	// telemetry handles. The orchestrator feeds it; it owns how a spec
	// becomes a result.
	exec := opts.Executor
	if exec == nil {
		exec = newLocalExecutor(lanes, opts, tele)
	}

	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				spec := specs[i]
				key := breakerKey(spec)
				if !br.Allow(key) {
					record(i, SpecResult{
						Spec:   spec,
						Status: StatusSkipped,
						Err:    fmt.Errorf("campaign: circuit open for %s: %s", key, br.Reason(key)),
					})
					continue
				}
				opts.Bus.Publish(telemetry.Event{
					Type: "run", Campaign: campID, Run: spec.ID(), Status: "running",
					Total: len(specs),
				})
				tele.inFlight.Add(1)
				sr := exec.Submit(ctx, spec)
				tele.inFlight.Add(-1)
				switch sr.Status {
				case StatusDone:
					br.Success(key)
				case StatusFailed:
					if !resilience.IsTransient(sr.Err) {
						br.Failure(key, sr.Err)
					}
				}
				record(i, sr)
			}
		}()
	}
	canceled := false
feeding:
	for _, i := range todo {
		select {
		case <-ctx.Done():
			canceled = true
			break feeding
		case feed <- i:
		}
	}
	close(feed)
	wg.Wait()

	// Anything still zero-valued was never fed (cancellation).
	for i, s := range specs {
		if res.Specs[i].Status == "" {
			record(i, SpecResult{Spec: s, Status: StatusCanceled, Err: ctx.Err()})
		}
	}
	res.Elapsed = time.Since(start)
	if canceled || ctx.Err() != nil {
		// No final compaction: the journal stays on disk for recovery,
		// exactly as after a kill.
		opts.Bus.Publish(telemetry.Event{
			Type: "campaign", Campaign: campID, Status: "canceled",
			Finished: finished, Total: len(specs), Elapsed: res.Elapsed.Seconds(),
		})
		return res, fmt.Errorf("campaign: canceled after %d of %d specs: %w",
			res.Done+res.Resumed, len(specs), context.Cause(ctx))
	}
	if jl != nil && jl.appends > 0 {
		mu.Lock()
		if man.Write(opts.OutDir) == nil {
			jl.Reset()
		}
		mu.Unlock()
	}
	opts.Bus.Publish(telemetry.Event{
		Type: "campaign", Campaign: campID, Status: "finished",
		Finished: finished, Total: len(specs), Elapsed: res.Elapsed.Seconds(),
	})
	return res, nil
}

// runSpec drives one spec through its retry loop. All failure modes
// collapse into the SpecResult; nothing propagates.
func runSpec(ctx context.Context, spec RunSpec, lanes int, opts Options, tele *campaignTele) SpecResult {
	attempts := opts.Retry.Attempts()
	start := time.Now()
	var sr SpecResult
	for a := 1; ; a++ {
		sr = runAttempt(ctx, spec, lanes, opts, a, tele)
		sr.Attempts = a
		if a >= attempts || !retryable(sr) {
			break
		}
		tele.noteRetry(sr)
		delay := opts.Retry.Delay(a, idHash(spec.ID()))
		select {
		case <-ctx.Done():
			sr.Status, sr.Err = StatusCanceled, context.Cause(ctx)
		case <-time.After(delay):
			continue
		}
		break
	}
	sr.Elapsed = time.Since(start)
	return sr
}

// retryable classifies an attempt outcome for the retry loop: watchdog
// cancellations and transient errors retry; so does a completed run whose
// profile recorded failed kernels (a panicking kernel may be a one-off —
// the next attempt overwrites the profile either way). Non-transient
// failures and operator cancellation are terminal.
func retryable(sr SpecResult) bool {
	switch sr.Status {
	case StatusTimedOut:
		return true
	case StatusFailed:
		return resilience.IsTransient(sr.Err)
	case StatusDone:
		return sr.KernelsFailed > 0
	}
	return false
}

// runGrace bounds how long a canceled attempt may keep running before its
// campaign worker abandons it and moves on. An abandoned run's goroutine
// leaks until its kernel unblocks; the alternative, a wedged campaign
// worker, is worse.
const runGrace = 2 * time.Second

// runAttempt executes one attempt of one spec on a private executor pool
// under a watchdog, and records its profile.
func runAttempt(ctx context.Context, spec RunSpec, lanes int, opts Options, attempt int, tele *campaignTele) SpecResult {
	sr := SpecResult{Spec: spec}
	if err := ctx.Err(); err != nil {
		sr.Status, sr.Err = StatusCanceled, err
		return sr
	}
	cfg, err := spec.Config()
	if err != nil {
		sr.Status, sr.Err = StatusFailed, err
		return sr
	}
	// The run.transient fault models an environmental failure (allocation
	// hiccup, filesystem blip) before the run starts: transient by
	// construction, so the retry policy owns it.
	if opts.Faults.Fire(resilience.FaultRunTransient) {
		sr.Status = StatusFailed
		sr.Err = resilience.MarkTransient(
			fmt.Errorf("injected transient run error (%s, attempt %d)", spec.ID(), attempt))
		return sr
	}

	// A private pool per in-flight run: executed kernels of concurrent
	// runs never contend for lanes, and each run's worker count stays
	// within its share of the machine. Dispatch telemetry aggregates the
	// per-run pools into the campaign registry's raja.pool.* series
	// (counters only — the liveness gauges belong to the process pool).
	// An explicit per-run worker request (spec Workers / -workers) wins
	// over the derived lane count: the pool grows to match, so a small
	// host still exercises pooled parallel regions instead of silently
	// serializing them through the workers<=1 bypass.
	if cfg.Workers > lanes {
		lanes = cfg.Workers
	}
	pool := raja.NewPool(lanes)
	pool.EnableDispatchTelemetry(tele.reg)
	cfg.Pool = pool
	if cfg.Workers <= 0 {
		cfg.Workers = lanes
	}
	cfg.Faults = opts.Faults
	// The watchdog's liveness signal: pool granules plus kernel
	// boundaries, so model-only runs (which may never dispatch through
	// the pool) still beat.
	var kernelBeats atomic.Int64
	cfg.Heartbeat = func() { kernelBeats.Add(1) }

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	wd := resilience.Watch(cancel,
		resilience.WatchdogConfig{Timeout: opts.RunTimeout, StallTimeout: opts.StallTimeout},
		func() int64 { return pool.Heartbeat() + kernelBeats.Load() })
	defer wd.Stop()

	type outcome struct {
		p   *caliper.Profile
		err error
	}
	outc := make(chan outcome, 1)
	go func() {
		defer pool.Close()
		p, err := suite.RunContext(runCtx, cfg)
		outc <- outcome{p, err}
	}()

	var out outcome
	select {
	case out = <-outc:
	case <-runCtx.Done():
		// The run was canceled (watchdog or operator); the suite notices
		// at the next kernel boundary. runGrace bounds how long we wait
		// for that before abandoning the run so the worker survives a
		// kernel wedged inside its body.
		select {
		case out = <-outc:
		case <-time.After(runGrace):
			cause := context.Cause(runCtx)
			if errors.Is(cause, resilience.ErrRunTimeout) || errors.Is(cause, resilience.ErrRunStalled) {
				sr.Status = StatusTimedOut
			} else {
				sr.Status = StatusCanceled
			}
			sr.Err = fmt.Errorf("campaign: run abandoned after %v grace: %w", runGrace, cause)
			return sr
		}
	}
	if out.err != nil {
		cause := context.Cause(runCtx)
		switch {
		case errors.Is(cause, resilience.ErrRunTimeout) || errors.Is(cause, resilience.ErrRunStalled):
			sr.Status, sr.Err = StatusTimedOut, out.err
		case ctx.Err() != nil:
			sr.Status, sr.Err = StatusCanceled, out.err
		default:
			sr.Status, sr.Err = StatusFailed, out.err
		}
		return sr
	}
	p := out.p
	// Stamp the profile with its campaign identity: the resume validator
	// checks it, and Thicket analyses group by it. The attempt ordinal
	// rides along as adiak-style metadata.
	p.Metadata["campaign.spec"] = spec.ID()
	p.Metadata["campaign.attempt"] = attempt
	if kf, ok := p.Metadata["kernels_failed"].(int); ok {
		sr.KernelsFailed = kf
	}

	if opts.OutDir != "" {
		path := filepath.Join(opts.OutDir, spec.FileName())
		if err := p.WriteFile(path); err != nil {
			sr.Status, sr.Err = StatusFailed, err
			return sr
		}
		sr.Path = path
		// The profile.corrupt fault tears the recorded bytes after the
		// (atomic) write, modeling storage-level corruption: recovery
		// quarantines the file and the spec re-runs on resume.
		if opts.Faults.Fire(resilience.FaultCorruptProfile) {
			if fi, err := os.Stat(path); err == nil && fi.Size() > 1 {
				os.Truncate(path, fi.Size()/2)
			}
		}
	}
	if opts.Retain {
		sr.Profile = p
	}
	sr.Status = StatusDone
	return sr
}
