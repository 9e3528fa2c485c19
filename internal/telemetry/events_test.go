package telemetry

import (
	"sync"
	"testing"
)

// Dropped reports how many events this subscriber lost to backpressure.
func (s *Sub) Dropped() int64 { return s.dropped.Load() }

// Stats reports bus-level counters: events published and events dropped
// across all subscribers.
func (b *Bus) Stats() (published, dropped int64) {
	if b == nil {
		return 0, 0
	}
	return b.pub.Value(), b.drop.Value()
}

// TestBusOrdering: a subscriber keeping up sees every event in publish
// order with strictly increasing sequence numbers — even when many
// goroutines publish concurrently.
func TestBusOrdering(t *testing.T) {
	bus := &Bus{}
	sub := bus.Subscribe(4096, 0)
	defer sub.Close()

	const publishers, each = 4, 100
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				bus.Publish(Event{Type: "run", Status: "done"})
			}
		}()
	}
	wg.Wait()

	var last int64
	for i := 0; i < publishers*each; i++ {
		ev := <-sub.C
		if ev.Seq <= last {
			t.Fatalf("event %d: seq %d not after %d", i, ev.Seq, last)
		}
		last = ev.Seq
	}
	if pub, drop := bus.Stats(); pub != publishers*each || drop != 0 {
		t.Fatalf("bus stats = %d published %d dropped, want %d/0", pub, drop, publishers*each)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("subscriber dropped %d events with a large buffer", sub.Dropped())
	}
}

// TestBusBackpressure: a slow subscriber loses the oldest events, never
// blocks the publisher, and still observes increasing Seq across the
// gap; Dropped accounts for the loss.
func TestBusBackpressure(t *testing.T) {
	bus := &Bus{}
	sub := bus.Subscribe(8, 0)
	defer sub.Close()

	const total = 1000
	for i := 0; i < total; i++ {
		bus.Publish(Event{Type: "run"}) // never blocks despite the tiny buffer
	}
	got := make([]int64, 0, 8)
	for {
		select {
		case ev := <-sub.C:
			got = append(got, ev.Seq)
			continue
		default:
		}
		break
	}
	if len(got) == 0 || len(got) > 8 {
		t.Fatalf("received %d events, want 1..8", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("seq order violated after drops: %v", got)
		}
	}
	// The newest event always survives; the drops are all at the old end.
	if got[len(got)-1] != total {
		t.Errorf("newest surviving seq = %d, want %d", got[len(got)-1], total)
	}
	if d := sub.Dropped(); d != total-int64(len(got)) {
		t.Errorf("Dropped() = %d, want %d", d, total-int64(len(got)))
	}
}

// TestBusReplay: a late subscriber asking for replay gets the most
// recent events, in order, capped by the retention ring and its buffer.
func TestBusReplay(t *testing.T) {
	bus := &Bus{}
	for i := 0; i < 300; i++ {
		bus.Publish(Event{Type: "run"})
	}
	sub := bus.Subscribe(64, 10)
	defer sub.Close()
	for want := int64(291); want <= 300; want++ {
		ev := <-sub.C
		if ev.Seq != want {
			t.Fatalf("replayed seq %d, want %d", ev.Seq, want)
		}
	}
	// Replay larger than retention: bounded by the ring (256), then by
	// the subscriber's buffer.
	sub2 := bus.Subscribe(1024, 1024)
	defer sub2.Close()
	first := <-sub2.C
	if first.Seq != 300-retainRecent+1 {
		t.Fatalf("oldest replayed seq %d, want %d", first.Seq, 300-retainRecent+1)
	}
}

// TestSubClose: closing wakes a blocked receiver and a publish after
// close does not panic or deliver.
func TestSubClose(t *testing.T) {
	bus := &Bus{}
	sub := bus.Subscribe(1, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.C {
		}
	}()
	bus.Publish(Event{Type: "run"})
	sub.Close()
	<-done
	bus.Publish(Event{Type: "run"}) // must not panic on the closed sub
	sub.Close()                     // idempotent
}
