package raja

import (
	"sync/atomic"
	"testing"
)

// ParPolicy returns a parallel policy over n workers (0 = all cores).
func ParPolicy(n int) Policy { return Policy{Kind: Par, Workers: n} }

// GPUPolicy returns a block-scheduled policy with the given block size
// (0 = DefaultBlock) over all cores.
func GPUPolicy(block int) Policy { return Policy{Kind: GPU, Block: block} }

var testPolicies = []Policy{
	SeqPolicy(),
	ParPolicy(0),
	ParPolicy(1),
	ParPolicy(3),
	GPUPolicy(0),
	GPUPolicy(64),
	{Kind: GPU, Workers: 2, Block: 7},
}

func TestForallCoversEveryIndexOnce(t *testing.T) {
	for _, p := range testPolicies {
		for _, n := range []int{0, 1, 2, 7, 100, 1023} {
			hits := make([]int32, n)
			Forall(p, n, func(c Ctx, i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("policy %v n=%d: index %d hit %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestForallRangeRespectsBounds(t *testing.T) {
	for _, p := range testPolicies {
		var lo, hi atomic.Int64
		lo.Store(1 << 30)
		hi.Store(-1)
		ForallRange(p, Range{10, 55}, func(c Ctx, i int) {
			for {
				cur := lo.Load()
				if int64(i) >= cur || lo.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			for {
				cur := hi.Load()
				if int64(i) <= cur || hi.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		})
		if lo.Load() != 10 || hi.Load() != 54 {
			t.Fatalf("policy %v: observed bounds [%d,%d], want [10,54]", p, lo.Load(), hi.Load())
		}
	}
}

func TestForallEmptyAndReversedRange(t *testing.T) {
	for _, p := range testPolicies {
		ran := false
		ForallRange(p, Range{5, 5}, func(c Ctx, i int) { ran = true })
		ForallRange(p, Range{9, 3}, func(c Ctx, i int) { ran = true })
		if ran {
			t.Fatalf("policy %v: body ran on empty range", p)
		}
	}
}

func TestForallWorkerIndexInBounds(t *testing.T) {
	for _, p := range testPolicies {
		max := p.MaxWorkers()
		var bad atomic.Int64
		Forall(p, 5000, func(c Ctx, i int) {
			if c.Worker < 0 || c.Worker >= max {
				bad.Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Fatalf("policy %v: %d iterations saw out-of-range worker", p, bad.Load())
		}
	}
}

func TestForallSeqIsOrdered(t *testing.T) {
	prev := -1
	ok := true
	Forall(SeqPolicy(), 1000, func(c Ctx, i int) {
		if i != prev+1 {
			ok = false
		}
		prev = i
	})
	if !ok || prev != 999 {
		t.Fatal("sequential policy did not iterate in order")
	}
}

func TestPolicyResolution(t *testing.T) {
	if SeqPolicy().MaxWorkers() != 1 {
		t.Error("Seq policy must have exactly one worker lane")
	}
	if got := ParPolicy(7).MaxWorkers(); got != 7 {
		t.Errorf("ParPolicy(7).MaxWorkers() = %d, want 7", got)
	}
	if ParPolicy(0).MaxWorkers() < 1 {
		t.Error("default worker count must be at least 1")
	}
	if got := (Policy{Kind: GPU}).block(); got != DefaultBlock {
		t.Errorf("default block = %d, want %d", got, DefaultBlock)
	}
	for k, want := range map[PolicyKind]string{Seq: "seq", Par: "par", GPU: "gpu", PolicyKind(99): "unknown"} {
		if k.String() != want {
			t.Errorf("PolicyKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
