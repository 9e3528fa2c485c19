package raja

import (
	"slices"
	"sync/atomic"
	"time"
)

// Observer receives one pool's dispatch events; it is the executor's one
// instrumentation path. The load-imbalance statistics (LaneStats), the
// event trace and the dispatch telemetry are observers, each defined in
// the package whose output it feeds. A pool without observers reads no
// clock and makes no call beyond its heartbeat. The methods are called
// from every lane of every dispatch in flight and must be safe for
// concurrent use.
type Observer interface {
	// Dispatch is called before a multi-lane dispatch runs, with the
	// number of lanes that run it and whether it took the spawn
	// fallback. The results ask the pool to time the whole dispatch and
	// each of its granules.
	Dispatch(lanes int, spawned bool) (timeDispatch, timeGranules bool)
	// Granule reports one executed scheduling granule to an observer
	// that asked for granule timing: the lane that ran it, the lane a
	// static round-robin assignment would have given it, its kind
	// ("chunk", "block" or "grab"), its start and its duration.
	Granule(lane, owner int, kind string, start time.Time, d time.Duration)
	// Done is called after the dispatch's lanes finish. d is the
	// dispatch's duration if the observer asked for dispatch timing, and
	// 0 otherwise.
	Done(spawned bool, d time.Duration)
}

// observer is one Observe registration. Stop finds it by pointer, so the
// same Observer added twice is two registrations.
type observer struct{ Observer }

// dispatchObserver is one observer of one dispatch, with the timing it
// asked of that dispatch.
type dispatchObserver struct {
	Observer
	timeDispatch, timeGranules bool
}

// Observe adds o to the pool's observers and returns the function that
// removes it again. Every dispatch that starts after Observe returns
// reports to o, on the pooled path and the spawn fallback alike; none
// that starts after stop returns does. Both are safe while the pool is
// dispatching, and stop may be called more than once.
func (p *Pool) Observe(o Observer) (stop func()) {
	e := &observer{o}
	p.updateObservers(func(obs []*observer) []*observer { return append(slices.Clip(obs), e) })
	return func() {
		p.updateObservers(func(obs []*observer) []*observer {
			return slices.DeleteFunc(slices.Clone(obs), func(x *observer) bool { return x == e })
		})
	}
}

// updateObservers replaces the observer list with f of it. The list is
// never modified in place, so a dispatch reads it with one atomic load.
func (p *Pool) updateObservers(f func([]*observer) []*observer) {
	for {
		old := p.observers.Load()
		var obs []*observer
		if old != nil {
			obs = *old
		}
		next := f(obs)
		if p.observers.CompareAndSwap(old, &next) {
			return
		}
	}
}

// observing returns the pool's current observers.
func (p *Pool) observing() []*observer {
	if obs := p.observers.Load(); obs != nil {
		return *obs
	}
	return nil
}

// begin opens a multi-lane dispatch of t on p: it wires the heartbeat,
// reports the dispatch to p's observers and records what each asked for.
// It returns the dispatch's start time when one of them asked to time
// it, and the zero time otherwise.
func (t *poolTask) begin(p *Pool, spawned bool) (start time.Time) {
	t.beats = &p.beats
	t.timeGranules = false
	timed := false
	for _, o := range p.observing() {
		d, g := o.Dispatch(t.lanes, spawned)
		t.obs = append(t.obs, dispatchObserver{o.Observer, d, g})
		timed = timed || d
		t.timeGranules = t.timeGranules || g
	}
	if timed {
		start = time.Now()
	}
	return start
}

// end reports the finished dispatch to the observers begin reported its
// start to, and forgets them, keeping the slice for the next dispatch.
func (t *poolTask) end(spawned bool, start time.Time) {
	var d time.Duration
	if !start.IsZero() {
		d = time.Since(start)
	}
	for _, o := range t.obs {
		if o.timeDispatch {
			o.Done(spawned, d)
		} else {
			o.Done(spawned, 0)
		}
	}
	clear(t.obs)
	t.obs = t.obs[:0]
}

// Granule kind names reported to Observer.Granule. Constants, so the hot
// path never formats strings.
const (
	granuleChunk = "chunk"
	granuleBlock = "block"
	granuleGrab  = "grab"
)

// LaneStats is the load-imbalance measurement service: an Observer that
// accumulates, over the dispatches it observes, each lane's busy time and
// granule and steal counts, and the lanes each dispatch woke. From these
// Imbalance derives the lane-level quantities the paper's scalability
// analysis needs and a wall clock cannot see. The suite gives each
// kernel's Run a fresh one, so its totals are that kernel's.
type LaneStats struct {
	lanes []laneStat
	wakes atomic.Int64
}

// laneStat is one lane's counters, padded to a cache line so lanes never
// false-share. The pooled path has one writer per slot, but spawn
// fallbacks may fold several goroutines onto one slot, hence atomics.
type laneStat struct {
	busyNS   atomic.Int64 // time spent executing granule bodies
	granules atomic.Int64 // scheduling granules executed
	steals   atomic.Int64 // granules whose static owner is another lane
	_        [5]int64
}

// NewLaneStats returns statistics for a pool of lanes lanes. A spawn
// fallback may run more lanes than its pool has; their granules fold onto
// the existing slots.
func NewLaneStats(lanes int) *LaneStats {
	return &LaneStats{lanes: make([]laneStat, max(lanes, 1))}
}

// Dispatch counts the dispatch's lane wakes and asks for granule timing.
func (s *LaneStats) Dispatch(lanes int, _ bool) (timeDispatch, timeGranules bool) {
	s.wakes.Add(int64(lanes))
	return false, true
}

// Granule records one executed granule on its lane's slot. A granule run
// by another lane than its static owner counts as a steal, the
// work-displacement signal of the dynamic and guided schedules.
func (s *LaneStats) Granule(lane, owner int, _ string, _ time.Time, d time.Duration) {
	l := &s.lanes[lane%len(s.lanes)]
	l.busyNS.Add(d.Nanoseconds())
	l.granules.Add(1)
	if owner != lane {
		l.steals.Add(1)
	}
}

// Done does nothing: lane statistics need no dispatch timing.
func (s *LaneStats) Done(bool, time.Duration) {}

// Imbalance summarizes a per-lane busy-time distribution — the
// OpenMP-style load-imbalance metrics attached to each kernel's Caliper
// record.
type Imbalance struct {
	Lanes    int           // lanes that ran any granule
	Max      time.Duration // busiest lane
	Min      time.Duration // least-busy participating lane
	Avg      time.Duration // mean over participating lanes
	Pct      float64       // (max-avg)/max * 100; 0 = perfectly balanced
	Granules int64         // granules executed
	Steals   int64         // granules run off their static owner lane
	Wakes    int64         // dispatch participations
}

// Imbalance derives the imbalance metrics of everything s observed. Lanes
// that ran no granule did not participate and are excluded, so a 4-lane
// pool running a 2-lane dispatch is not reported as 50% imbalanced by
// construction.
func (s *LaneStats) Imbalance() Imbalance {
	im := Imbalance{Wakes: s.wakes.Load()}
	var total time.Duration
	for i := range s.lanes {
		l := &s.lanes[i]
		busy, granules := time.Duration(l.busyNS.Load()), l.granules.Load()
		im.Granules += granules
		im.Steals += l.steals.Load()
		if granules == 0 {
			continue
		}
		if im.Lanes == 0 || busy > im.Max {
			im.Max = busy
		}
		if im.Lanes == 0 || busy < im.Min {
			im.Min = busy
		}
		total += busy
		im.Lanes++
	}
	if im.Lanes > 0 {
		im.Avg = total / time.Duration(im.Lanes)
	}
	if im.Max > 0 {
		im.Pct = 100 * float64(im.Max-im.Avg) / float64(im.Max)
	}
	return im
}
