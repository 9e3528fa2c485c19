package campaign

// The pluggable execution backend. The orchestrator (orchestrator.go)
// owns planning, resume, retry-visible bookkeeping, the circuit breaker,
// and the record layer; *how* one RunSpec turns into a terminal
// SpecResult is the Executor's business. Two backends exist:
//
//   - LocalExecutor (this file): the classic in-process path — a private
//     raja.Pool per attempt, retry with backoff, run watchdogs — exactly
//     the semantics campaigns have always had. The orchestrator uses it
//     when Options.Executor is nil.
//   - fabric.Coordinator (internal/fabric): shards specs across worker
//     processes it spawns, one socketpair each, with work-stealing
//     rebalancing, per-shard WALs, and failure-domain isolation. It
//     satisfies this interface, so the orchestrator drives both
//     identically.
//
// Submit is the whole seam. Lifecycle and counters stay on the concrete
// types: whoever creates a Coordinator closes it and reads its steal
// count.

import (
	"context"
	"runtime"
)

// Executor runs RunSpecs to terminal SpecResults on behalf of the
// orchestrator. Implementations must be safe for concurrent Submit calls
// up to the orchestrator's worker bound.
type Executor interface {
	// Submit executes one spec to a terminal result, blocking until the
	// outcome is known. All failure modes collapse into the SpecResult;
	// Submit never panics and never returns a zero Status.
	Submit(ctx context.Context, spec RunSpec) SpecResult
}

// LocalExecutor is the in-process execution backend: each Submit drives
// one spec through the retry/watchdog attempt loop on a private executor
// pool, writing its profile to Options.OutDir. It is the orchestrator's
// default backend and the engine a fabric worker process runs behind its
// shard of a distributed campaign.
type LocalExecutor struct {
	lanes int
	opts  Options
	tele  *campaignTele
}

// NewLocalExecutor builds an in-process executor from the campaign
// options that govern execution: OutDir, Retry, RunTimeout, StallTimeout,
// Faults, Retain, and Metrics. Each run's private pool gets
// max(1, NumCPU/Workers) lanes, the orchestrator's derivation.
func NewLocalExecutor(opts Options) *LocalExecutor {
	lanes := max(1, runtime.NumCPU()/max(opts.Workers, 1))
	return newLocalExecutor(lanes, opts, newCampaignTele(opts.Metrics))
}

// newLocalExecutor is the orchestrator's constructor: it shares the
// campaign's already-resolved telemetry handles and lane derivation.
func newLocalExecutor(lanes int, opts Options, tele *campaignTele) *LocalExecutor {
	return &LocalExecutor{lanes: lanes, opts: opts, tele: tele}
}

// Submit runs one spec through the retry loop: behavior-identical to the
// pre-Executor orchestrator, which called this path directly.
func (e *LocalExecutor) Submit(ctx context.Context, spec RunSpec) SpecResult {
	return runSpec(ctx, spec, e.lanes, e.opts, e.tele)
}
