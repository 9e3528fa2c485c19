package simmpi

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Messages from one sender arrive in send order.
// Pass AnySource to match any sender.
func (r *Rank) Recv(src, tag int) []float64 {
	return r.match(src, tag).Data
}

func TestSendRecvRoundtrip(t *testing.T) {
	Run(2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, []float64{1, 2, 3})
			got := r.Recv(1, 8)
			if len(got) != 1 || got[0] != 42 {
				t.Errorf("rank 0 received %v, want [42]", got)
			}
		} else {
			got := r.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("rank 1 received %v, want [1 2 3]", got)
			}
			r.Send(0, 8, []float64{42})
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	Run(2, func(r *Rank) {
		if r.ID() == 0 {
			buf := []float64{1}
			r.Send(1, 0, buf)
			buf[0] = 99 // must not affect the delivered message
			r.Send(1, 1, nil)
		} else {
			got := r.Recv(0, 0)
			// Per-pair FIFO order: the second message arrives after the
			// sender has mutated its buffer.
			r.Recv(0, 1)
			if got[0] != 1 {
				t.Errorf("payload mutated after send: %v", got[0])
			}
		}
	})
}

func TestFIFOPerPair(t *testing.T) {
	const n = 200
	Run(2, func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, 5, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				got := r.Recv(0, 5)
				if got[0] != float64(i) {
					t.Errorf("message %d arrived out of order: %v", i, got[0])
					return
				}
			}
		}
	})
}

func TestTagMatchingHoldsUnmatched(t *testing.T) {
	Run(2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, []float64{10})
			r.Send(1, 2, []float64{20})
		} else {
			// Receive in reverse tag order.
			if got := r.Recv(0, 2); got[0] != 20 {
				t.Errorf("tag 2 payload = %v, want 20", got[0])
			}
			if got := r.Recv(0, 1); got[0] != 10 {
				t.Errorf("tag 1 payload = %v, want 10", got[0])
			}
		}
	})
}

func TestIrecvIsendHaloPattern(t *testing.T) {
	// Each rank exchanges with both neighbors in a ring, the Comm
	// group's communication shape.
	const ranks = 6
	Run(ranks, func(r *Rank) {
		left := (r.ID() + ranks - 1) % ranks
		right := (r.ID() + 1) % ranks
		rl := r.Irecv(left, 100)
		rr := r.Irecv(right, 101)
		r.Isend(right, 100, []float64{float64(r.ID())})
		r.Isend(left, 101, []float64{float64(r.ID()) + 0.5})
		fromLeft := rl.Wait()
		fromRight := rr.Wait()
		if fromLeft[0] != float64(left) {
			t.Errorf("rank %d: from left = %v, want %d", r.ID(), fromLeft[0], left)
		}
		if fromRight[0] != float64(right)+0.5 {
			t.Errorf("rank %d: from right = %v, want %v", r.ID(), fromRight[0], float64(right)+0.5)
		}
	})
}

func TestInvalidDestinationPanics(t *testing.T) {
	Run(1, func(r *Rank) {
		defer func() {
			if recover() == nil {
				t.Error("Send to invalid rank must panic")
			}
		}()
		r.Send(5, 0, nil)
	})
}

// Property: an all-to-all exchange delivers every payload intact for any
// rank count in [1, 8].
func TestQuickAllToAllDelivery(t *testing.T) {
	f := func(sizeSeed uint8) bool {
		ranks := int(sizeSeed%8) + 1
		ok := atomic.Bool{}
		ok.Store(true)
		Run(ranks, func(r *Rank) {
			for d := 0; d < ranks; d++ {
				if d != r.ID() {
					r.Send(d, 9, []float64{float64(r.ID()*1000 + d)})
				}
			}
			for s := 0; s < ranks; s++ {
				if s != r.ID() {
					got := r.Recv(s, 9)
					if got[0] != float64(s*1000+r.ID()) {
						ok.Store(false)
					}
				}
			}
		})
		return ok.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
