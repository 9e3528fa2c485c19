package raja

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// testSchedules crosses the scheduling axis for conformance tests.
var testSchedules = []Schedule{ScheduleDefault, ScheduleStatic, ScheduleDynamic, ScheduleGuided}

func fillRamp(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 + float64(i%17)*0.25
	}
	return x
}

// TestGenericMatchesClosureBitwise runs the same elementwise kernel
// through the closure Forall and the span ForallSpan across all policies
// and schedules and requires bit-identical outputs: elementwise bodies
// touch each index exactly once, so no reassociation can occur.
func TestGenericMatchesClosureBitwise(t *testing.T) {
	const alpha = 0.62
	for _, p := range testPolicies {
		for _, sched := range testSchedules {
			p := p
			p.Schedule = sched
			for _, n := range []int{0, 1, 7, 100, 1023, 4096} {
				x := fillRamp(n)
				want := fillRamp(n)
				Forall(p, n, func(_ Ctx, i int) { want[i] += alpha * x[i] })

				got := fillRamp(n)
				ForallSpan(p, n, func(lo, hi int) { AxpySpan(got, x, alpha, lo, hi) })
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("policy %v sched %v n=%d: ForallSpan[%d]=%v want %v", p, sched, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// dotReducer is a fused Reducer computing sum(a[i]*b[i]).
type dotReducer struct {
	a, b []float64
	init float64
}

func (r dotReducer) Init() float64                { return r.init }
func (r dotReducer) Partial(lo, hi int) float64   { return DotSpan(r.a, r.b, lo, hi) }
func (r dotReducer) Combine(a, b float64) float64 { return a + b }

// TestForallReduceMatchesClosure compares the fused reduction against a
// closure Forall that adds each index into a padded per-Ctx.Worker slot
// and folds the slots in ascending order from init. Under Seq and static
// schedules the worker→chunk mapping is deterministic and both paths
// accumulate the same ascending association, so results must be
// bit-identical; dynamic and guided schedules reassociate by arrival
// order, so those compare within floating-point tolerance.
func TestForallReduceMatchesClosure(t *testing.T) {
	const init = 3.25
	for _, p := range testPolicies {
		for _, sched := range testSchedules {
			p := p
			p.Schedule = sched
			for _, n := range []int{0, 1, 7, 100, 1023, 4096} {
				a, b := fillRamp(n), fillRamp(n)
				for i := range b {
					b[i] *= 1.5
				}
				slots := make([]float64, p.MaxWorkers()*lanePad)
				Forall(p, n, func(c Ctx, i int) { slots[c.Worker*lanePad] += a[i] * b[i] })
				want := init
				for k := 0; k < len(slots); k += lanePad {
					want += slots[k]
				}

				got := ForallReduce[float64](p, n, dotReducer{a: a, b: b, init: init})

				deterministic := p.Kind == Seq || p.schedule() == ScheduleStatic
				if deterministic {
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("policy %v sched %v n=%d: fused %v closure %v (want bitwise equal)", p, sched, n, got, want)
					}
				} else {
					diff := math.Abs(got - want)
					tol := 1e-9 * math.Max(math.Abs(want), 1)
					if diff > tol {
						t.Fatalf("policy %v sched %v n=%d: fused %v closure %v diff %v", p, sched, n, got, want, diff)
					}
				}
			}
		}
	}
}

// seqExclusive is the sequential exclusive prefix sum the scan tests
// compare against.
func seqExclusive[T Number](src []T) []T {
	want := make([]T, len(src))
	var acc T
	for i, v := range src {
		want[i] = acc
		acc += v
	}
	return want
}

// TestForallScanMatchesScanSum requires the scan to equal the sequential
// exclusive prefix bit for bit under every policy and schedule.
// fillRamp's elements are multiples of 0.25, so every prefix is exact
// however the parallel scan associates it.
func TestForallScanMatchesScanSum(t *testing.T) {
	for _, p := range testPolicies {
		for _, sched := range testSchedules {
			p := p
			p.Schedule = sched
			for _, n := range []int{0, 1, 7, 100, 1023, 4096} {
				src := fillRamp(n)
				want := seqExclusive(src)
				got := make([]float64, n)
				ExclusiveScanSum(p, got, src)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("policy %v sched %v n=%d: scan[%d]=%v want %v",
							p, sched, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestExclusiveScanInPlace requires the in-place scan (dst == src) to
// equal the sequential exclusive prefix under every policy and schedule,
// for integer and floating-point elements.
func TestExclusiveScanInPlace(t *testing.T) {
	for _, p := range testPolicies {
		for _, sched := range testSchedules {
			p := p
			p.Schedule = sched
			for _, n := range []int{0, 1, 7, 100, 1023, 4096} {
				ints := make([]int64, n)
				for i := range ints {
					ints[i] = int64(i%7 - 3)
				}
				checkScanInPlace(t, p, ints)
				checkScanInPlace(t, p, fillRamp(n))
			}
		}
	}
}

func checkScanInPlace[T Number](t *testing.T, p Policy, src []T) {
	t.Helper()
	want := seqExclusive(src)
	x := append([]T(nil), src...)
	ExclusiveScanSum(p, x, x)
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("policy %v sched %v n=%d %T: in-place scan[%d]=%v want %v",
				p, p.Schedule, len(src), src, i, x[i], want[i])
		}
	}
}

// TestSpanOpsMatchScalar pins every span helper against its scalar loop
// on awkward spans.
func TestSpanOpsMatchScalar(t *testing.T) {
	const n = 257
	spans := [][2]int{{0, 0}, {0, 1}, {0, n}, {3, 7}, {n - 1, n}, {13, 200}}
	for _, sp := range spans {
		lo, hi := sp[0], sp[1]
		a, b, c := fillRamp(n), fillRamp(n), fillRamp(n)
		for i := range b {
			b[i] += 1.0
			c[i] += 2.0
		}
		wantA := append([]float64(nil), a...)
		for i := lo; i < hi; i++ {
			wantA[i] = b[i] + 0.62*c[i]
		}
		TriadSpan(a, b, c, 0.62, lo, hi)
		checkBits(t, "TriadSpan", a, wantA)

		d := make([]float64, n)
		wantD := make([]float64, n)
		for i := lo; i < hi; i++ {
			wantD[i] = b[i] + c[i]
		}
		AddSpan(d, b, c, lo, hi)
		checkBits(t, "AddSpan", d, wantD)

		d2 := make([]float64, n)
		wantD2 := make([]float64, n)
		for i := lo; i < hi; i++ {
			wantD2[i] = 0.62 * c[i]
		}
		ScaleSpan(d2, c, 0.62, lo, hi)
		checkBits(t, "ScaleSpan", d2, wantD2)

		d3 := make([]float64, n)
		copy(d3, a)
		wantD3 := append([]float64(nil), d3...)
		for i := lo; i < hi; i++ {
			wantD3[i] += 0.25 * b[i]
		}
		AxpySpan(d3, b, 0.25, lo, hi)
		checkBits(t, "AxpySpan", d3, wantD3)

		d4 := make([]float64, n)
		wantD4 := make([]float64, n)
		for i := lo; i < hi; i++ {
			wantD4[i] = b[i]
		}
		CopySpan(d4, b, lo, hi)
		checkBits(t, "CopySpan", d4, wantD4)

		d5 := make([]float64, n)
		wantD5 := make([]float64, n)
		for i := lo; i < hi; i++ {
			wantD5[i] = 7.5
		}
		FillSpan(d5, 7.5, lo, hi)
		checkBits(t, "FillSpan", d5, wantD5)

		var wantDot, wantSum float64
		for i := lo; i < hi; i++ {
			wantDot += b[i] * c[i]
			wantSum += b[i]
		}
		if got := DotSpan(b, c, lo, hi); math.Float64bits(got) != math.Float64bits(wantDot) {
			t.Fatalf("DotSpan[%d:%d] = %v want %v", lo, hi, got, wantDot)
		}
		if got := SumSpan(b, lo, hi); math.Float64bits(got) != math.Float64bits(wantSum) {
			t.Fatalf("SumSpan[%d:%d] = %v want %v", lo, hi, got, wantSum)
		}
	}
}

func checkBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v want %v", name, i, got[i], want[i])
		}
	}
}

// TestSpanDispatchInstrumentation verifies the observability contract on
// ForallSpan: per-lane stats, the trace hook, and the heartbeat keep
// firing for span dispatches on both the pooled path and the spawn
// fallback (pool held busy by a concurrent dispatch).
func TestSpanDispatchInstrumentation(t *testing.T) {
	for _, sched := range []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
		for _, busy := range []bool{false, true} {
			pool := NewPool(4)
			pool.Instrument(true)
			var traced atomic.Int64
			pool.SetLaneTrace(func(lane int, name string, start time.Time, dur time.Duration) {
				traced.Add(1)
			})
			p := Policy{Kind: Par, Workers: 4, Schedule: sched, Pool: pool}

			release := make(chan struct{})
			started := make(chan struct{})
			if busy {
				// Hold the pool mid-dispatch so the span dispatch must
				// take the spawn fallback.
				go Forall(p, 1, func(Ctx, int) {
					close(started)
					<-release
				})
				<-started
			}

			beatsBefore := pool.Heartbeat()
			y, x := make([]float64, 4096), fillRamp(4096)
			ForallSpan(p, 4096, func(lo, hi int) { AxpySpan(y, x, 1.0, lo, hi) })
			if busy {
				close(release)
			}

			if pool.Heartbeat() <= beatsBefore {
				t.Fatalf("sched %v busy=%v: heartbeat did not advance on span dispatch", sched, busy)
			}
			if traced.Load() == 0 {
				t.Fatalf("sched %v busy=%v: lane trace never fired on span dispatch", sched, busy)
			}
			var granules, wakes int64
			for _, l := range pool.InstrSnapshot() {
				granules += l.Granules
				wakes += l.Wakes
			}
			if granules == 0 || wakes == 0 {
				t.Fatalf("sched %v busy=%v: instr recorded granules=%d wakes=%d", sched, busy, granules, wakes)
			}
			pool.Close()
		}
	}
}

// FuzzGenericDispatch checks that the closure Forall and the span
// ForallSpan produce bit-identical results for an elementwise body over
// fuzzed data and every policy/schedule shape.
func FuzzGenericDispatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 17, 42, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 250, 128, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data)
		x := make([]float64, n)
		for i, b := range data {
			x[i] = (float64(b) - 128) * 0.125
		}
		const alpha = 0.62
		for _, p := range fuzzPolicies() {
			want := make([]float64, n)
			Forall(p, n, func(_ Ctx, i int) { want[i] += alpha * x[i] })

			got := make([]float64, n)
			ForallSpan(p, n, func(lo, hi int) { AxpySpan(got, x, alpha, lo, hi) })
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("policy %+v: ForallSpan[%d] = %v, want %v", p, i, got[i], want[i])
				}
			}
		}
	})
}
