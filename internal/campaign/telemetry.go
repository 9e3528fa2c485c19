package campaign

// Campaign telemetry: the orchestrator's metric handles, resolved once
// per Run against the campaign's registry (Options.Metrics, default
// telemetry.Default()), plus the recovery accounting. Metric names:
//
//	campaign.runs{status="done"|...}   terminal spec outcomes
//	campaign.runs.in_flight            specs executing right now
//	campaign.runs.retried              specs that consumed >1 attempt
//	campaign.retries{cause=...}        retry decisions by cause
//	campaign.run_ns                    per-spec wall time (ran specs only)
//	campaign.wal.appends / append_ns   journal durability points + latency
//	campaign.recovery.*                what crash recovery repaired
//
// The handles are plain telemetry types, so a campaign with telemetry
// left at defaults still records into the process registry the CLIs
// expose over /metrics.

import (
	"time"

	"rajaperf/internal/telemetry"
)

// campaignTele bundles the orchestrator's metric handles. Resolved once
// per Run; never nil (the default registry always exists).
type campaignTele struct {
	reg      *telemetry.Registry
	byStatus map[Status]*telemetry.Counter
	inFlight *telemetry.Gauge
	retried  *telemetry.Counter
	runNS    *telemetry.Histogram
}

func newCampaignTele(reg *telemetry.Registry) *campaignTele {
	if reg == nil {
		reg = telemetry.Default()
	}
	t := &campaignTele{
		reg:      reg,
		byStatus: make(map[Status]*telemetry.Counter, 6),
		inFlight: reg.Gauge("campaign.runs.in_flight"),
		retried:  reg.Counter("campaign.runs.retried"),
		runNS:    reg.Histogram("campaign.run_ns"),
	}
	for _, s := range []Status{StatusDone, StatusFailed, StatusResumed,
		StatusCanceled, StatusTimedOut, StatusSkipped} {
		t.byStatus[s] = reg.Counter("campaign.runs", "status", string(s))
	}
	return t
}

// recordOutcome folds one terminal spec outcome into the counters.
func (t *campaignTele) recordOutcome(sr SpecResult) {
	if c := t.byStatus[sr.Status]; c != nil {
		c.Inc()
	}
	if sr.Attempts > 1 {
		t.retried.Inc()
	}
	// Only specs that actually ran contribute wall time; resumed and
	// skipped specs would drag the distribution toward zero.
	if sr.Attempts > 0 {
		t.runNS.Observe(sr.Elapsed.Nanoseconds())
	}
}

// noteRetry counts one retry decision by its cause. Retries are rare, so
// the labeled lookup (registry read lock) is off the hot path.
func (t *campaignTele) noteRetry(sr SpecResult) {
	cause := "transient"
	switch {
	case sr.Status == StatusTimedOut:
		cause = "timeout"
	case sr.Status == StatusDone:
		cause = "failed_kernels"
	}
	t.reg.Counter("campaign.retries", "cause", cause).Inc()
}

// recordRecovery folds a crash-recovery report into the counters.
func (t *campaignTele) recordRecovery(rep *RecoveryReport) {
	t.reg.Counter("campaign.recovery.runs").Inc()
	if rep == nil {
		return
	}
	t.reg.Counter("campaign.recovery.journal_applied").Add(int64(rep.JournalApplied))
	t.reg.Counter("campaign.recovery.journal_torn").Add(int64(rep.JournalTorn))
	t.reg.Counter("campaign.recovery.temp_removed").Add(int64(len(rep.TempRemoved)))
	t.reg.Counter("campaign.recovery.quarantined").Add(int64(len(rep.Quarantined)))
}

// walTele is the journal's pair of handles (journal.go times Append's
// write+fsync against them). Nil when the journal is closed over a
// campaign without telemetry — which does not happen in practice, but
// the nil-safe handles make it harmless anyway.
type walTele struct {
	appends  *telemetry.Counter
	appendNS *telemetry.Histogram
}

func (t *campaignTele) wal() *walTele {
	return &walTele{
		appends:  t.reg.Counter("campaign.wal.appends"),
		appendNS: t.reg.Histogram("campaign.wal.append_ns"),
	}
}

// publishRun emits one run-level bus event (nil-safe on the bus).
func publishRun(bus *telemetry.Bus, campaign string, sr SpecResult, finished, total int) {
	ev := telemetry.Event{
		Type:     "run",
		Campaign: campaign,
		Run:      sr.Spec.ID(),
		Status:   string(sr.Status),
		Elapsed:  sr.Elapsed.Seconds(),
		Attempts: sr.Attempts,
		Finished: finished,
		Total:    total,
	}
	if sr.Err != nil {
		ev.Err = sr.Err.Error()
	}
	bus.Publish(ev)
}

// heartbeats publishes a campaign liveness event every second until stop
// is closed. Returned only for the goroutine; callers just close(stop).
func heartbeats(bus *telemetry.Bus, campaign string,
	progress func() (finished, total, inFlight int), stop <-chan struct{}) {
	if bus == nil {
		return
	}
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				f, tot, fl := progress()
				bus.Publish(telemetry.Event{
					Type: "heartbeat", Campaign: campaign,
					Finished: f, Total: tot, InFlight: fl,
				})
			}
		}
	}()
}
