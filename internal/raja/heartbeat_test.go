package raja

import (
	"sync/atomic"
	"testing"
)

// TestPoolHeartbeatAdvances checks the liveness counter the campaign
// watchdog samples: every pooled dispatch must advance it at granule
// granularity, and it must be monotonic.
func TestPoolHeartbeatAdvances(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()

	if pool.Heartbeat() != 0 {
		t.Fatalf("fresh pool heartbeat = %d, want 0", pool.Heartbeat())
	}

	var n atomic.Int64
	p := Policy{Kind: Par, Workers: 4, Pool: pool}
	for _, sched := range []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
		p.Schedule = sched
		before := pool.Heartbeat()
		Forall(p, 1024, func(c Ctx, i int) { n.Add(1) })
		after := pool.Heartbeat()
		if after <= before {
			t.Errorf("schedule %v: heartbeat did not advance (%d -> %d)", sched, before, after)
		}
	}
	if n.Load() != 3*1024 {
		t.Fatalf("iterations = %d, want %d", n.Load(), 3*1024)
	}
}

// TestPoolHeartbeatSpawnFallback: a dispatch that cannot use the pool
// (nested region) runs the same lane loops on fresh goroutines, which
// advance the heartbeat once per granule, so a watchdog never sees a
// silent executor.
func TestPoolHeartbeatSpawnFallback(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()

	p := Policy{Kind: Par, Workers: 2, Pool: pool}
	before := pool.Heartbeat()
	var inner atomic.Int64
	Forall(p, 8, func(c Ctx, i int) {
		// The nested dispatch finds the pool busy and takes the spawn
		// fallback, which must still tick the heartbeat.
		Forall(p, 64, func(c Ctx, j int) { inner.Add(1) })
	})
	if inner.Load() != 8*64 {
		t.Fatalf("inner iterations = %d, want %d", inner.Load(), 8*64)
	}
	// The outer dispatch runs 2 chunks on the pool; each of its 8
	// indices issues a 2-chunk dispatch on the fallback.
	if got := pool.Heartbeat() - before; got < 2+8*2 {
		t.Errorf("heartbeat advanced %d across nested dispatches, want >= %d (one per granule)", got, 2+8*2)
	}
}
