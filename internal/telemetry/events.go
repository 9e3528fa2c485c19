package telemetry

// The campaign event bus: the source of truth for live progress. The
// orchestrator publishes one Event per RunSpec status transition plus
// periodic heartbeats; subscribers — the CLI's progress printer and
// every connected /events SSE client — consume the same stream, so what
// an operator sees over HTTP is exactly what the terminal shows.
//
// Publish never blocks: each subscriber owns a bounded buffer, and a
// subscriber that falls behind drops the oldest events (counted, and
// surfaced to it as a gap in sequence numbers) rather than stalling the
// campaign. Events carry a bus-wide monotone sequence number, and are
// stamped and delivered under one hold of the bus lock, so any single
// subscriber observes strictly increasing Seq values in publish order.

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is one progress notification on the bus.
type Event struct {
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	// Type is the event class: "run" (a RunSpec status transition),
	// "heartbeat" (periodic campaign liveness), "campaign"
	// (campaign-level start/end), or "worker" (fabric worker lifecycle:
	// connected, stole, dead, closed).
	Type string `json:"type"`

	Campaign string  `json:"campaign,omitempty"` // campaign identity (output dir)
	Run      string  `json:"run,omitempty"`      // RunSpec ID
	Status   string  `json:"status,omitempty"`   // terminal status or phase
	Err      string  `json:"error,omitempty"`
	Elapsed  float64 `json:"elapsed_sec,omitempty"`
	Attempts int     `json:"attempts,omitempty"`
	Finished int     `json:"finished,omitempty"`
	Total    int     `json:"total,omitempty"`
	InFlight int     `json:"in_flight,omitempty"`
	// Worker identifies a fabric worker on "worker" events ("shard3");
	// Shard is its shard index.
	Worker string `json:"worker,omitempty"`
	Shard  int    `json:"shard,omitempty"`
}

// Sub is one subscription: receive events from C until Close. If the
// subscriber lags past its buffer, the oldest pending events are
// dropped and counted.
type Sub struct {
	C chan Event

	bus     *Bus
	dropped atomic.Int64
}

// Close detaches the subscription and closes its channel.
func (s *Sub) Close() {
	s.bus.unsubscribe(s)
}

// Bus is a fan-out event bus. The zero value is ready; a nil *Bus
// discards publishes, so layers emit unconditionally.
type Bus struct {
	mu     sync.Mutex
	seq    int64
	subs   map[*Sub]struct{}
	recent []Event // ring of the last retainRecent events, for late joiners
	pub    Counter // events published
	drop   Counter // events dropped across all subscribers
}

// retainRecent bounds the replay window handed to new subscribers: an
// SSE client that connects mid-campaign sees the recent transitions
// without the bus retaining the whole history.
const retainRecent = 256

// Publish stamps ev with the next sequence number and fans it out.
// Delivery happens under the bus lock, so concurrent publishers reach
// every subscriber in Seq order; it never blocks, because a subscriber
// whose buffer is full drops its oldest buffered event instead.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	ev.Seq = b.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	if len(b.recent) < retainRecent {
		b.recent = append(b.recent, ev)
	} else {
		copy(b.recent, b.recent[1:])
		b.recent[len(b.recent)-1] = ev
	}
	b.pub.Inc()
	for s := range b.subs {
		for {
			select {
			case s.C <- ev:
			default:
				// Buffer full: drop the oldest pending event and retry.
				select {
				case <-s.C:
					s.dropped.Add(1)
					b.drop.Inc()
				default:
				}
				continue
			}
			break
		}
	}
}

// Subscribe attaches a subscription with the given buffer (min 1).
// replay > 0 pre-fills the buffer with up to that many recent events
// (ordered, deduplicated against nothing — the subscriber starts at
// whatever suffix of history fits).
func (b *Bus) Subscribe(buffer, replay int) *Sub {
	if buffer < 1 {
		buffer = 1
	}
	s := &Sub{C: make(chan Event, buffer), bus: b}
	b.mu.Lock()
	if b.subs == nil {
		b.subs = map[*Sub]struct{}{}
	}
	if replay > 0 {
		start := len(b.recent) - replay
		if start < 0 {
			start = 0
		}
		for _, ev := range b.recent[start:] {
			if len(s.C) == cap(s.C) {
				break
			}
			s.C <- ev
		}
	}
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// unsubscribe detaches s. Publish delivers only to attached subscribers
// and only under b.mu, so closing the channel under the same hold can
// never race a send.
func (b *Bus) unsubscribe(s *Sub) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, present := b.subs[s]; present {
		delete(b.subs, s)
		close(s.C)
	}
}
