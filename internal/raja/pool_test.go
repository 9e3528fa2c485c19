package raja

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolReusesWorkers verifies the executor is actually persistent:
// many dispatches must not grow the goroutine count beyond the pool's
// parked workers.
func TestPoolReusesWorkers(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	p := Policy{Kind: Par, Workers: 4, Pool: pool}

	// Warm up: start the workers.
	Forall(p, 1000, func(c Ctx, i int) {})
	runtime.Gosched()
	base := runtime.NumGoroutine()

	for rep := 0; rep < 500; rep++ {
		Forall(p, 1000, func(c Ctx, i int) {})
	}
	if g := runtime.NumGoroutine(); g > base+2 {
		t.Fatalf("goroutines grew from %d to %d across 500 dispatches; pool is not persistent", base, g)
	}
}

// TestPoolLazyStart verifies a pool spawns no goroutines until its first
// parallel dispatch.
func TestPoolLazyStart(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(8)
	defer pool.Close()
	if g := runtime.NumGoroutine(); g != before {
		t.Fatalf("NewPool started goroutines: %d -> %d", before, g)
	}
	Forall(Policy{Kind: Par, Workers: 8, Pool: pool}, 100, func(c Ctx, i int) {})
	if g := runtime.NumGoroutine(); g < before+1 {
		t.Fatalf("first dispatch did not start workers: %d -> %d", before, g)
	}
}

// TestPoolCloseReleasesWorkersAndStillComputes verifies Close parks the
// pool for good, that dispatches after Close still compute correctly via
// the spawn fallback, and that Close is idempotent.
func TestPoolCloseReleasesWorkersAndStillComputes(t *testing.T) {
	pool := NewPool(4)
	p := Policy{Kind: Par, Workers: 4, Pool: pool}
	Forall(p, 1000, func(c Ctx, i int) {})

	before := runtime.NumGoroutine()
	pool.Close()
	pool.Close() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() >= before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g >= before {
		t.Errorf("workers did not exit after Close: %d -> %d goroutines", before, g)
	}

	hits := make([]int32, 5000)
	Forall(p, len(hits), func(c Ctx, i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("after Close: index %d hit %d times", i, h)
		}
	}
}

// TestPoolNestedForall verifies a parallel region issued from inside a
// pool worker falls back to spawning instead of deadlocking, and still
// covers every index exactly once.
func TestPoolNestedForall(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	p := Policy{Kind: Par, Workers: 4, Pool: pool}

	const ni, nj = 64, 257
	hits := make([]int32, ni*nj)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Forall(p, ni, func(c Ctx, i int) {
			Forall(p, nj, func(c2 Ctx, j int) {
				atomic.AddInt32(&hits[i*nj+j], 1)
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested Forall deadlocked")
	}
	for idx, h := range hits {
		if h != 1 {
			t.Fatalf("nested: cell %d hit %d times", idx, h)
		}
	}
}

// TestPoolConcurrentForalls verifies concurrent parallel regions on one
// pool stay correct: one wins the pool, the rest fall back to spawning.
func TestPoolConcurrentForalls(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	p := Policy{Kind: Par, Workers: 4, Pool: pool}

	const callers, n = 8, 10_000
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits := make([]int32, n)
			for rep := 0; rep < 20; rep++ {
				for i := range hits {
					hits[i] = 0
				}
				Forall(p, n, func(c Ctx, i int) { atomic.AddInt32(&hits[i], 1) })
				for i, h := range hits {
					if h != 1 {
						errs <- "index " + itoa(i) + " hit " + itoa(int(h)) + " times"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// TestDynamicDegenerateBlockCtx verifies the single-worker dynamic path
// runs every iteration on Worker 0 and visits the blocks in ascending
// order.
func TestDynamicDegenerateBlockCtx(t *testing.T) {
	const block, lo, hi = 7, 10, 95
	single := Policy{Kind: GPU, Workers: 1, Block: block}

	var order []int
	ForallRange(single, Range{lo, hi}, func(c Ctx, i int) {
		if c.Worker != 0 {
			t.Fatalf("index %d: Worker = %d on single-lane path", i, c.Worker)
		}
		order = append(order, i)
	})
	for k := 1; k < len(order); k++ {
		if order[k] != order[k-1]+1 {
			t.Fatalf("single-lane dynamic path visited %d after %d; want block-sequential order",
				order[k], order[k-1])
		}
	}
}

// TestForallPoolPathAllocs verifies the steady-state pooled Forall path
// does not allocate: that is the point of the persistent executor.
func TestForallPoolPathAllocs(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	x := make([]float64, 10_000)
	body := func(c Ctx, i int) { x[i]++ }
	span := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i]++
		}
	}
	for _, p := range []Policy{
		{Kind: Par, Workers: 4, Pool: pool},
		{Kind: Par, Workers: 4, Schedule: ScheduleDynamic, Block: 256, Pool: pool},
		{Kind: Par, Workers: 4, Schedule: ScheduleGuided, Pool: pool},
		{Kind: GPU, Workers: 4, Block: 256, Pool: pool},
	} {
		Forall(p, len(x), body) // warm up the workers
		avg := testing.AllocsPerRun(100, func() { Forall(p, len(x), body) })
		if avg > 1 {
			t.Errorf("policy %+v: %.1f allocs per pooled Forall, want ~0", p, avg)
		}
		avg = testing.AllocsPerRun(100, func() { ForallSpan(p, len(x), span) })
		if avg > 0 {
			t.Errorf("policy %+v: %.1f allocs per pooled ForallSpan, want 0", p, avg)
		}
	}
}

// TestPoolStaticChunksMatchesSpawn verifies the skeleton API covers
// [0, n) with the same chunk geometry as the pre-pool goroutine version,
// including degenerate inputs.
func TestPoolStaticChunksMatchesSpawn(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	for _, n := range []int{0, 1, 2, 5, 100, 1023} {
		for _, workers := range []int{1, 2, 3, 8, 100} {
			var mu sync.Mutex
			type span struct{ w, lo, hi int }
			var got []span
			used := pool.StaticChunks(workers, n, func(w, lo, hi int) {
				mu.Lock()
				got = append(got, span{w, lo, hi})
				mu.Unlock()
			})
			covered := make([]int, n)
			maxW := -1
			for _, s := range got {
				for i := s.lo; i < s.hi; i++ {
					covered[i]++
				}
				if s.w > maxW {
					maxW = s.w
				}
			}
			for i, cnt := range covered {
				if cnt != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, cnt)
				}
			}
			if maxW >= used {
				t.Fatalf("n=%d workers=%d: chunk index %d >= used %d", n, workers, maxW, used)
			}
		}
	}
}

// TestPoolDynamicBlocksCoverage verifies the dynamic skeleton covers the
// range in whole blocks at every worker count.
func TestPoolDynamicBlocksCoverage(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, n := range []int{1, 7, 100, 1000} {
		for _, workers := range []int{1, 2, 4, 16} {
			for _, block := range []int{1, 7, 256} {
				covered := make([]int32, n)
				pool.DynamicBlocks(workers, block, n, func(lo, hi int) {
					if hi-lo > block || lo%block != 0 {
						t.Errorf("n=%d w=%d block=%d: span [%d,%d) not block-granular",
							n, workers, block, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&covered[i], 1)
					}
				})
				for i, cnt := range covered {
					if cnt != 1 {
						t.Fatalf("n=%d w=%d block=%d: index %d covered %d times",
							n, workers, block, i, cnt)
					}
				}
			}
		}
	}
}

// TestScheduleStringRoundTrip covers Schedule naming and parsing.
func TestScheduleStringRoundTrip(t *testing.T) {
	for sc := ScheduleDefault; sc <= ScheduleGuided; sc++ {
		got, ok := ParseSchedule(sc.String())
		if !ok || got != sc {
			t.Errorf("ParseSchedule(%q) = %v, %v", sc.String(), got, ok)
		}
	}
	if _, ok := ParseSchedule("fifo"); ok {
		t.Error("ParseSchedule accepted an unknown name")
	}
	if Schedule(99).String() != "unknown" {
		t.Error("out-of-range Schedule must stringify as unknown")
	}
}
