package resilience

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Watchdog cancellation causes. The orchestrator distinguishes them from
// an operator's ctrl-C via context.Cause: a run canceled with one of
// these is marked timed_out (and is retryable), not canceled.
var (
	// ErrRunTimeout: the run exceeded its wall-clock deadline.
	ErrRunTimeout = errors.New("resilience: run exceeded its deadline")
	// ErrRunStalled: the run's executor heartbeat stopped advancing —
	// a hung kernel, not merely a slow one.
	ErrRunStalled = errors.New("resilience: run stalled (heartbeat stopped advancing)")
)

// WatchdogConfig bounds one watched run.
type WatchdogConfig struct {
	// Timeout is the hard wall-clock deadline (0 = none).
	Timeout time.Duration
	// StallTimeout cancels the run when the heartbeat does not advance
	// for this long (0 = stall detection off). Distinct from Timeout: a
	// slow-but-progressing run survives StallTimeout and dies only at
	// Timeout, while a wedged run dies after StallTimeout no matter how
	// generous the deadline is. The heartbeat is sampled every
	// StallTimeout/4, but at least every 100ms.
	StallTimeout time.Duration
}

// Watchdog watches one run: it samples a heartbeat counter and cancels
// the run's context — with ErrRunTimeout or ErrRunStalled as the cause —
// when the deadline passes or the heartbeat stalls. Stop it when the run
// finishes; a nil *Watchdog is valid and inert.
type Watchdog struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// Watch starts a watchdog over a run whose context was created with
// context.WithCancelCause. beat must be safe to call concurrently with
// the run and return a monotonically non-decreasing activity counter
// (e.g. raja.Pool.Heartbeat plus a kernel-boundary counter). Returns nil
// — an inert watchdog — when cfg enables nothing.
func Watch(cancel context.CancelCauseFunc, cfg WatchdogConfig, beat func() int64) *Watchdog {
	if cfg.Timeout <= 0 && cfg.StallTimeout <= 0 {
		return nil
	}
	w := &Watchdog{stop: make(chan struct{}), done: make(chan struct{})}
	go w.run(cancel, cfg, beat)
	return w
}

func (w *Watchdog) run(cancel context.CancelCauseFunc, cfg WatchdogConfig, beat func() int64) {
	defer close(w.done)

	var deadline <-chan time.Time
	if cfg.Timeout > 0 {
		t := time.NewTimer(cfg.Timeout)
		defer t.Stop()
		deadline = t.C
	}
	var tick <-chan time.Time
	if cfg.StallTimeout > 0 && beat != nil {
		poll := min(cfg.StallTimeout/4, 100*time.Millisecond)
		if poll <= 0 {
			poll = time.Millisecond
		}
		tk := time.NewTicker(poll)
		defer tk.Stop()
		tick = tk.C
	}

	last := int64(-1)
	if beat != nil {
		last = beat()
	}
	lastAdvance := time.Now()
	for {
		select {
		case <-w.stop:
			return
		case <-deadline:
			watchdogTimeouts.Inc()
			cancel(ErrRunTimeout)
			return
		case <-tick:
			if b := beat(); b != last {
				last, lastAdvance = b, time.Now()
			} else if time.Since(lastAdvance) >= cfg.StallTimeout {
				watchdogStalls.Inc()
				cancel(ErrRunStalled)
				return
			}
		}
	}
}

// Stop ends the watch without canceling the run. Idempotent; safe on a
// nil watchdog. Returns once the watchdog goroutine has exited, so no
// cancellation can race past a Stop.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.once.Do(func() { close(w.stop) })
	<-w.done
}
