package fabric

// The coordinator: the campaign-side half of the fabric. It satisfies
// campaign.Executor, so the orchestrator drives it exactly as it drives
// the in-process backend — one blocking Submit per spec, bounded by the
// orchestrator's worker pool. Inside, each submitted spec is queued on
// its home shard (a stable hash of the spec ID), dispatched to that
// shard's worker with capacity one in flight per worker, and stolen by
// whichever worker goes idle first when its own queue drains — so a
// skewed plan (all the slow specs hashing to one shard) still saturates
// the fleet.
//
// Failure domains: the coordinator spawns every worker itself, each on
// its own socketpair, so no other process can connect and a worker's
// death shows up as EOF on its connection. Each worker is also watched
// by a stall watchdog over the heartbeat frames it sends, because a
// SIGSTOP'd or wedged worker keeps its socket open. A dead worker's
// in-flight spec — at most one, by the capacity discipline — is requeued
// at the front of its home queue and redispatched to a surviving worker;
// everything the dead worker already completed is durable in its shard
// WAL and is never re-run.
//
// Self-healing:
//
//   - supervision — a dead worker is respawned through Config.Spawn
//     under a capped exponential-backoff restart budget
//     (resilience.Policy), restoring full shard capacity instead of
//     limping on fewer queues; the respawned process reopens its shard
//     WAL in append mode, so completed work is never re-run;
//   - graceful drain — Drain stops assignment, cancels queued work, and
//     waits for in-flight specs to finish under the caller's deadline,
//     so SIGTERM ends a campaign at a spec boundary with merged WALs.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rajaperf/internal/campaign"
	"rajaperf/internal/resilience"
	"rajaperf/internal/telemetry"
)

// Config configures a coordinator.
type Config struct {
	// Workers is the shard count: NewCoordinator spawns exactly this many
	// worker processes.
	Workers int
	// Worker is the execution configuration handed to every worker in
	// its welcome frame.
	Worker WorkerConfig
	// WorkerStall declares a worker dead when its heartbeat frames stop
	// for this long (0 = 10s, <0 = disabled; the read loop still catches
	// exited workers immediately).
	WorkerStall time.Duration
	// Assign overrides home-shard assignment (tests force skew to
	// exercise stealing). Nil uses an FNV hash of the spec ID.
	Assign func(id string, shards int) int

	// Spawn starts one worker process and returns the coordinator's end
	// of its socketpair (StartWorker does this for an exec.Cmd). It is
	// required: NewCoordinator spawns the fleet through it, and
	// supervision respawns through it.
	Spawn func() (net.Conn, error)
	// Respawn caps and paces respawns per shard: MaxAttempts is the
	// cumulative restart budget (0 = dead capacity stays lost), Delay
	// paces attempts with exponential backoff and deterministic jitter.
	Respawn resilience.Policy
	// Faults is the coordinator-side fault injector: it decides
	// worker.crash at assign dispatch. Nil injects nothing.
	Faults *resilience.Injector

	// Metrics receives the fabric.* series (nil = telemetry.Default()).
	Metrics *telemetry.Registry
	// Bus receives worker-lifecycle events (nil-safe).
	Bus *telemetry.Bus
	// Campaign is the campaign identity stamped on bus events.
	Campaign string
}

// item is one submitted spec waiting for, or holding, a worker.
type item struct {
	spec campaign.RunSpec
	id   string
	home int
	res  chan campaign.SpecResult // buffered 1: delivery never blocks
}

// workerConn is one spawned worker.
type workerConn struct {
	shard int
	conn  net.Conn

	wmu sync.Mutex // serializes frame writes (FIFO discipline)

	beat atomic.Int64 // heartbeat frames received

	// Guarded by Coordinator.mu.
	inflight *item
	wd       *resilience.Watchdog // heartbeat stall watchdog (nil = off)
}

// send writes one frame under the connection's writer lock.
func (w *workerConn) send(f *frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.conn, f)
}

// stop closes the worker's connection and ends its stall watchdog.
func (w *workerConn) stop() {
	w.conn.Close()
	w.wd.Stop()
}

func (w *workerConn) name() string { return "shard" + strconv.Itoa(w.shard) }

// Coordinator shards campaign specs across worker processes. Create
// with NewCoordinator, pass as campaign Options.Executor, Close when
// the campaign returns.
type Coordinator struct {
	cfg  Config
	tele *fabricTele

	mu              sync.Mutex
	workers         map[int]*workerConn // live workers by shard
	queues          map[int][]*item     // pending items by home shard
	closed          bool
	draining        bool
	failed          error       // set when the whole fleet is gone
	restarts        map[int]int // cumulative spawn attempts by shard
	pendingRespawns int         // supervisors in flight (defers fleet-failure)

	steals       atomic.Int64
	redispatches atomic.Int64
	respawns     atomic.Int64
}

// NewCoordinator spawns the whole fleet through cfg.Spawn and returns
// once every worker has been sent its welcome frame. If any spawn fails,
// the workers already started are dismissed and the error returned.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("fabric: %d workers (need >= 1)", cfg.Workers)
	}
	if cfg.Spawn == nil {
		return nil, errors.New("fabric: Config.Spawn is required")
	}
	if cfg.WorkerStall == 0 {
		cfg.WorkerStall = 10 * time.Second
	}
	if cfg.Worker.HeartbeatEvery <= 0 {
		cfg.Worker.HeartbeatEvery = 250 * time.Millisecond
	}
	c := &Coordinator{
		cfg:      cfg,
		tele:     newFabricTele(cfg.Metrics),
		workers:  map[int]*workerConn{},
		queues:   map[int][]*item{},
		restarts: map[int]int{},
	}
	ws := make([]*workerConn, 0, cfg.Workers)
	for s := 0; s < cfg.Workers; s++ {
		w, err := c.spawn(s)
		if err != nil {
			c.Close()
			return nil, err
		}
		ws = append(ws, w)
	}
	// Read loops start only once the fleet is complete, so a worker that
	// exits at once cannot trip fleet-failure detection while the rest of
	// the fleet is still spawning.
	for _, w := range ws {
		go c.serve(w)
	}
	return c, nil
}

// spawn starts the shard's worker process through Config.Spawn, sends
// its welcome frame, registers it with the fleet and arms its stall
// watchdog. The caller starts its read loop with serve.
func (c *Coordinator) spawn(shard int) (*workerConn, error) {
	conn, err := c.cfg.Spawn()
	if err != nil {
		return nil, fmt.Errorf("fabric: spawn shard%d: %w", shard, err)
	}
	w := &workerConn{shard: shard, conn: conn}
	if err := w.send(&frame{Type: frameWelcome, Shard: shard, Proto: protoVersion,
		Fleet: c.cfg.Workers, Config: &c.cfg.Worker}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("fabric: welcome %s: %w", w.name(), err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, errors.New("fabric: coordinator closed")
	}
	c.workers[shard] = w
	// The stall watchdog counts heartbeat frames: a worker whose frames
	// stop (SIGSTOP, livelock) is declared dead even while its socket stays
	// open. The hook runs on the watchdog's goroutine, which workerDead
	// waits out, hence the go. WorkerStall < 0 makes the watchdog inert.
	w.wd = resilience.Watch(func(cause error) {
		go c.workerDead(w, fmt.Errorf("fabric: worker %s: %w", w.name(), cause))
	}, resilience.WatchdogConfig{StallTimeout: c.cfg.WorkerStall}, w.beat.Load)
	c.mu.Unlock()
	c.tele.workersLive.Add(1)
	c.cfg.Bus.Publish(telemetry.Event{
		Type: "worker", Campaign: c.cfg.Campaign, Status: "connected",
		Worker: w.name(), Shard: shard,
	})
	return w, nil
}

// serve runs one worker's read loop until its connection ends.
func (c *Coordinator) serve(w *workerConn) {
	c.kick()
	br := bufio.NewReader(w.conn)
	for {
		f, err := readFrame(br)
		if err != nil {
			c.workerDead(w, fmt.Errorf("fabric: worker %s connection: %w", w.name(), err))
			return
		}
		switch f.Type {
		case frameHeartbeat:
			c.tele.heartbeats.Inc()
			w.beat.Add(1)
		case frameResult:
			c.handleResult(w, f.Result)
		}
	}
}

// homeShard maps a spec to the shard that owns it.
func (c *Coordinator) homeShard(id string) int {
	if c.cfg.Assign != nil {
		if n := c.cfg.Assign(id, c.cfg.Workers); n >= 0 && n < c.cfg.Workers {
			return n
		}
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(c.cfg.Workers))
}

// Submit queues one spec on its home shard and blocks until a worker
// reports its terminal result (or ctx cancels). Part of
// campaign.Executor.
func (c *Coordinator) Submit(ctx context.Context, spec campaign.RunSpec) campaign.SpecResult {
	it := &item{spec: spec, id: spec.ID(), home: c.homeShard(spec.ID()),
		res: make(chan campaign.SpecResult, 1)}
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return campaign.SpecResult{Spec: spec, Status: campaign.StatusCanceled,
			Err: errors.New("fabric: draining, no new work accepted")}
	}
	if c.closed || c.failed != nil {
		err := c.failed
		c.mu.Unlock()
		if err == nil {
			err = errors.New("fabric: coordinator closed")
		}
		return campaign.SpecResult{Spec: spec, Status: campaign.StatusFailed,
			Err: fmt.Errorf("fabric: submit %s: %w", spec.ID(), err)}
	}
	c.queues[it.home] = append(c.queues[it.home], it)
	c.mu.Unlock()
	c.kick()

	select {
	case sr := <-it.res:
		return sr
	case <-ctx.Done():
		// Unqueue if still pending; an already-dispatched item keeps
		// running remotely and its late result lands in the buffered
		// channel, harmlessly.
		c.mu.Lock()
		q := c.queues[it.home]
		for i, qi := range q {
			if qi == it {
				c.queues[it.home] = append(q[:i:i], q[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		return campaign.SpecResult{Spec: spec, Status: campaign.StatusCanceled, Err: context.Cause(ctx)}
	}
}

// kick dispatches until no free worker can be matched with pending
// work. Frame writes happen outside the coordinator lock; a failed
// write turns into a worker death, which requeues and re-kicks.
func (c *Coordinator) kick() {
	for {
		c.mu.Lock()
		w, it, stolen := c.pickLocked()
		c.mu.Unlock()
		if w == nil {
			return
		}
		// The worker.crash decision is made here, coordinator-side, so
		// its count is campaign-global: a respawned worker does not
		// re-evaluate a budget the fleet already spent.
		crash := c.cfg.Faults.Fire(resilience.FaultWorkerCrash)
		c.tele.assigned(w.shard).Inc()
		if stolen {
			c.steals.Add(1)
			c.tele.steals.Inc()
			c.cfg.Bus.Publish(telemetry.Event{
				Type: "worker", Campaign: c.cfg.Campaign, Status: "stole",
				Worker: w.name(), Shard: w.shard, Run: it.id,
			})
		}
		if err := w.send(&frame{Type: frameAssign, Spec: &it.spec, Crash: crash}); err != nil {
			c.workerDead(w, fmt.Errorf("fabric: assign to %s: %w", w.name(), err))
		}
	}
}

// pickLocked matches the lowest-numbered free worker with work: its own
// queue first (FIFO), else a steal from the longest queue (ties to the
// lowest shard) — deterministic given the same event order. The chosen
// item becomes the worker's in-flight spec. Returns a nil worker while
// draining: drain's contract is that assignment stops.
func (c *Coordinator) pickLocked() (w *workerConn, it *item, stolen bool) {
	if c.draining {
		return nil, nil, false
	}
	for s := 0; s < c.cfg.Workers; s++ {
		w = c.workers[s]
		if w == nil || w.inflight != nil {
			continue
		}
		if q := c.queues[s]; len(q) > 0 {
			w.inflight, c.queues[s] = q[0], q[1:]
			return w, w.inflight, false
		}
		// Steal: the longest foreign queue keeps the fleet busy when the
		// hash (or a dead worker's orphaned queue) skews the load.
		victim, best := -1, 0
		for v := 0; v < c.cfg.Workers; v++ {
			if v != s && len(c.queues[v]) > best {
				victim, best = v, len(c.queues[v])
			}
		}
		if victim < 0 {
			continue
		}
		w.inflight, c.queues[victim] = c.queues[victim][0], c.queues[victim][1:]
		return w, w.inflight, true
	}
	return nil, nil, false
}

// handleResult resolves a worker's in-flight item with its terminal
// result and frees the worker for the next dispatch.
func (c *Coordinator) handleResult(w *workerConn, r *wireResult) {
	if r == nil {
		return
	}
	c.mu.Lock()
	it := w.inflight
	if it == nil || it.id != r.ID {
		// A result for work this worker no longer owns (it was declared
		// dead while the frame was in flight): drop it — the spec was
		// redispatched, and the shard WAL merge reconciles the duplicate
		// outcome.
		c.mu.Unlock()
		return
	}
	w.inflight = nil
	c.mu.Unlock()

	sr := r.toSpecResult(it.spec)
	c.tele.result(sr.Status).Inc()
	it.res <- sr
	c.kick()
}

// workerDead removes a worker from the fleet: its in-flight item — at
// most one — is requeued at the front of its home queue for redispatch
// (unless a drain is in progress), and everything the worker already
// completed stays durable in its shard WAL. Within the Respawn budget, a
// supervisor respawns the shard. Idempotent per worker (a dead worker
// has left c.workers); a no-op during Close.
func (c *Coordinator) workerDead(w *workerConn, cause error) {
	c.mu.Lock()
	if c.closed || c.workers[w.shard] != w {
		c.mu.Unlock()
		return
	}
	delete(c.workers, w.shard)
	it := w.inflight
	w.inflight = nil
	var drainCanceled []*item
	if it != nil {
		if c.draining {
			// Drain stopped assignment; requeueing would strand the item.
			drainCanceled, it = []*item{it}, nil
		} else {
			c.redispatches.Add(1)
			c.tele.redispatches.Inc()
			c.queues[it.home] = append([]*item{it}, c.queues[it.home]...)
		}
	}
	respawn := false
	if !c.draining && c.restarts[w.shard] < c.cfg.Respawn.MaxAttempts {
		respawn = true
		c.pendingRespawns++
	}
	orphans, failed := c.fleetFailCheckLocked(cause)
	c.mu.Unlock()

	w.stop()
	c.tele.workersLive.Add(-1)
	c.tele.deaths.Inc()
	ev := telemetry.Event{
		Type: "worker", Campaign: c.cfg.Campaign, Status: "dead",
		Worker: w.name(), Shard: w.shard, Err: cause.Error(),
	}
	if it != nil {
		ev.Run = it.id
	}
	c.cfg.Bus.Publish(ev)
	telemetry.L().Warn("fabric worker dead",
		"worker", w.name(), "cause", cause, "redispatching", ev.Run)
	resolve(drainCanceled, campaign.StatusCanceled,
		fmt.Errorf("fabric: worker %s died during drain: %w", w.name(), cause))
	resolve(orphans, campaign.StatusFailed, failed)
	if respawn {
		go c.supervise(w.shard)
	}
	c.kick()
}

// fleetFailCheckLocked declares fleet failure when no worker is live and
// none is being respawned — nothing will ever run the queues. It returns
// the orphaned items and the failure, for resolution outside the lock.
func (c *Coordinator) fleetFailCheckLocked(cause error) ([]*item, error) {
	if len(c.workers) > 0 || c.pendingRespawns > 0 || c.failed != nil || c.closed {
		return nil, nil
	}
	c.failed = fmt.Errorf("fabric: all workers dead (last: %w)", cause)
	return c.takeQueuedLocked(), fmt.Errorf("fabric: never ran: %w", c.failed)
}

// takeQueuedLocked empties every queue and returns what was in them.
func (c *Coordinator) takeQueuedLocked() []*item {
	var items []*item
	for s, q := range c.queues {
		items = append(items, q...)
		c.queues[s] = nil
	}
	return items
}

// resolve delivers the same terminal result to every item.
func resolve(items []*item, status campaign.Status, err error) {
	for _, it := range items {
		it.res <- campaign.SpecResult{Spec: it.spec, Status: status, Err: err}
	}
}

// supervise respawns one shard's worker: backoff, then spawn; repeat
// until a spawn succeeds or the cumulative restart budget is spent. One
// supervisor runs per death (pendingRespawns holds off fleet-failure
// while any is in flight).
func (c *Coordinator) supervise(shard int) {
	var w *workerConn
	name := "shard" + strconv.Itoa(shard)
	for w == nil {
		c.mu.Lock()
		if c.closed || c.draining || c.restarts[shard] >= c.cfg.Respawn.MaxAttempts {
			c.mu.Unlock()
			break
		}
		c.restarts[shard]++
		attempt := c.restarts[shard]
		c.mu.Unlock()

		time.Sleep(c.cfg.Respawn.Delay(attempt, uint64(shard)))
		c.cfg.Bus.Publish(telemetry.Event{
			Type: "worker", Campaign: c.cfg.Campaign, Status: "respawning",
			Worker: name, Shard: shard, Attempts: attempt,
		})
		var err error
		if w, err = c.spawn(shard); err != nil {
			telemetry.L().Warn("fabric respawn failed",
				"worker", name, "attempt", attempt, "err", err)
			continue
		}
		c.respawns.Add(1)
		c.tele.respawns.Inc()
		c.cfg.Bus.Publish(telemetry.Event{
			Type: "worker", Campaign: c.cfg.Campaign, Status: "respawned",
			Worker: name, Shard: shard, Attempts: attempt,
		})
		telemetry.L().Info("fabric worker respawned", "worker", name, "attempt", attempt)
	}

	// With this supervisor no longer pending, the fleet has failed if no
	// worker is live — whether the budget ran out or the new worker died.
	c.mu.Lock()
	c.pendingRespawns--
	orphans, failed := c.fleetFailCheckLocked(errors.New("respawn budget exhausted"))
	c.mu.Unlock()
	resolve(orphans, campaign.StatusFailed, failed)
	if w == nil {
		telemetry.L().Warn("fabric respawn gave up", "worker", name)
		return
	}
	c.serve(w)
}

// Drain stops assignment and waits for in-flight specs to finish under
// ctx's deadline — the graceful half of SIGTERM. Queued-but-undispatched
// work resolves canceled immediately (resume re-runs it); in-flight
// specs run to their terminal result, so the campaign ends at a spec
// boundary with every outcome durable in its shard WAL.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	if c.closed || c.draining {
		c.mu.Unlock()
		return nil
	}
	c.draining = true
	queued := c.takeQueuedLocked()
	c.mu.Unlock()

	c.cfg.Bus.Publish(telemetry.Event{
		Type: "campaign", Campaign: c.cfg.Campaign, Status: "draining",
	})
	telemetry.L().Info("fabric draining", "queued_canceled", len(queued))
	resolve(queued, campaign.StatusCanceled, errors.New("fabric: drained before dispatch"))

	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		c.mu.Lock()
		n := 0
		for _, w := range c.workers {
			if w.inflight != nil {
				n++
			}
		}
		c.mu.Unlock()
		if n == 0 {
			c.cfg.Bus.Publish(telemetry.Event{
				Type: "campaign", Campaign: c.cfg.Campaign, Status: "drained",
			})
			telemetry.L().Info("fabric drained")
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fabric: drain: %d specs still in flight: %w", n, context.Cause(ctx))
		case <-t.C:
		}
	}
}

// Steals counts specs dispatched off their home shard.
func (c *Coordinator) Steals() int64 { return c.steals.Load() }

// Redispatches counts in-flight specs re-run because their worker died.
func (c *Coordinator) Redispatches() int64 { return c.redispatches.Load() }

// Respawns counts workers successfully respawned by supervision.
func (c *Coordinator) Respawns() int64 { return c.respawns.Load() }

// Close dismisses the fleet: it closes every worker's connection — each
// worker sees EOF, finishes any in-flight spec into its shard WAL, and
// exits — and resolves anything still queued as canceled. Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ws := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	leftovers := c.takeQueuedLocked()
	c.mu.Unlock()

	for _, w := range ws {
		w.stop()
		c.tele.workersLive.Add(-1)
		c.cfg.Bus.Publish(telemetry.Event{
			Type: "worker", Campaign: c.cfg.Campaign, Status: "closed",
			Worker: w.name(), Shard: w.shard,
		})
	}
	resolve(leftovers, campaign.StatusCanceled, errors.New("fabric: coordinator closed"))
	return nil
}

// fabricTele bundles the coordinator's metric handles (fabric.* series).
type fabricTele struct {
	reg          *telemetry.Registry
	workersLive  *telemetry.Gauge   // fabric.workers.live
	heartbeats   *telemetry.Counter // fabric.heartbeats
	steals       *telemetry.Counter // fabric.steals
	redispatches *telemetry.Counter // fabric.redispatches
	deaths       *telemetry.Counter // fabric.worker.deaths
	respawns     *telemetry.Counter // fabric.worker.respawns
}

func newFabricTele(reg *telemetry.Registry) *fabricTele {
	if reg == nil {
		reg = telemetry.Default()
	}
	return &fabricTele{
		reg:          reg,
		workersLive:  reg.Gauge("fabric.workers.live"),
		heartbeats:   reg.Counter("fabric.heartbeats"),
		steals:       reg.Counter("fabric.steals"),
		redispatches: reg.Counter("fabric.redispatches"),
		deaths:       reg.Counter("fabric.worker.deaths"),
		respawns:     reg.Counter("fabric.worker.respawns"),
	}
}

// assigned is the per-shard dispatch counter (fabric.assigned{shard=N}).
func (t *fabricTele) assigned(shard int) *telemetry.Counter {
	return t.reg.Counter("fabric.assigned", "shard", strconv.Itoa(shard))
}

// result is the per-status outcome counter (fabric.results{status=...}).
func (t *fabricTele) result(s campaign.Status) *telemetry.Counter {
	return t.reg.Counter("fabric.results", "status", string(s))
}
