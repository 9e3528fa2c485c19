// Package simmpi provides a small message-passing substrate that stands in
// for MPI in the suite's Comm group kernels. Each simulated rank runs on
// its own goroutine; ranks exchange tagged messages over channels with
// point-to-point FIFO ordering and support nonblocking send/receive with
// requests. It models no interconnect cost: a Comm kernel's communication
// share is its instruction mix's MPIFraction, which the tma and gpusim
// models apply.
//
// The package's message discipline — typed tagged frames, spawn-all
// rendezvous before any rank communicates, per-sender FIFO ordering —
// is also the protocol skeleton of the distributed campaign fabric
// (internal/fabric), translated there from channels to length-prefixed
// frames over one socketpair per worker.
package simmpi

import (
	"fmt"
	"sync"
)

// Message is one tagged payload between a pair of ranks.
type Message struct {
	Src, Tag int
	Data     []float64
}

// Comm is a communicator over a fixed set of ranks.
type Comm struct {
	size int
	mail []chan Message // one inbox per destination rank
}

// NewComm creates a communicator with the given number of ranks.
func NewComm(size int) *Comm {
	if size <= 0 {
		panic("simmpi: communicator needs at least one rank")
	}
	c := &Comm{size: size, mail: make([]chan Message, size)}
	for i := range c.mail {
		c.mail[i] = make(chan Message, 4*size)
	}
	return c
}

// Rank is the per-goroutine handle a rank uses to communicate.
type Rank struct {
	comm    *Comm
	id      int
	pending []Message // received but not yet matched
	mu      sync.Mutex
}

// ID returns this rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.size }

// Send delivers data to rank dst with the given tag. The payload is copied
// so the sender may reuse its buffer, matching MPI semantics.
func (r *Rank) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= r.comm.size {
		panic(fmt.Sprintf("simmpi: send to invalid rank %d", dst))
	}
	buf := make([]float64, len(data))
	copy(buf, data)
	r.comm.mail[dst] <- Message{Src: r.id, Tag: tag, Data: buf}
}

// AnySource matches a message from any sender in Irecv.
const AnySource = -1

// match returns the next message matching (src, tag), draining the inbox
// into the pending queue as needed. All matching happens under the rank's
// lock so concurrent nonblocking receives never steal each other's
// messages.
func (r *Rank) match(src, tag int) Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		for i, m := range r.pending {
			if (src == AnySource || m.Src == src) && m.Tag == tag {
				r.pending = append(r.pending[:i], r.pending[i+1:]...)
				return m
			}
		}
		m, ok := <-r.comm.mail[r.id]
		if !ok {
			panic("simmpi: communicator closed while receiving")
		}
		r.pending = append(r.pending, m)
	}
}

// Request represents a nonblocking operation.
type Request struct {
	done <-chan []float64
}

// Wait blocks until the operation completes and returns the received
// payload (nil for sends).
func (q *Request) Wait() []float64 {
	if q.done == nil {
		return nil
	}
	return <-q.done
}

// Isend starts a nonblocking send. The implementation delivers eagerly, so
// the returned request is already complete; Wait returns nil.
func (r *Rank) Isend(dst, tag int, data []float64) *Request {
	r.Send(dst, tag, data)
	return &Request{}
}

// Irecv starts a nonblocking receive and returns a request whose Wait
// yields the payload.
func (r *Rank) Irecv(src, tag int) *Request {
	ch := make(chan []float64, 1)
	go func() {
		ch <- r.match(src, tag).Data
	}()
	return &Request{done: ch}
}

// Run executes f on every rank of a fresh communicator of the given size
// and returns when all ranks finish.
func Run(size int, f func(r *Rank)) {
	c := NewComm(size)
	var wg sync.WaitGroup
	for i := 0; i < size; i++ {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			f(r)
		}(&Rank{comm: c, id: i})
	}
	wg.Wait()
}
