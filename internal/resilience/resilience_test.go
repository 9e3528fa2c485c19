package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Enabled reports whether the named point is armed at all.
func (in *Injector) Enabled(point string) bool {
	return in != nil && in.points[point] != nil
}

func TestParseFaultsRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"no.such.point",             // unknown point
		"kernel.panic:-1",           // negative count
		"kernel.panic:1.5",          // probability out of range
		"kernel.panic:x",            // unparsable arg
		"seed=7",                    // seed without any point
		"seed=abc,kernel.panic",     // bad seed
		"kernel.panic,kernel.panic", // duplicate point
		"net.drop:1",                // removed point
	} {
		if _, err := ParseFaults(spec); err == nil {
			t.Errorf("ParseFaults(%q) accepted a bad spec", spec)
		}
	}
}

func TestCatalogCoversEveryPoint(t *testing.T) {
	cat := Catalog()
	if len(cat) != len(Points()) {
		t.Fatalf("Catalog has %d entries, Points %d", len(cat), len(Points()))
	}
	for i, p := range cat {
		if p.Name == "" || p.Desc == "" {
			t.Errorf("catalog entry %d incomplete: %+v", i, p)
		}
		if p.Name != Points()[i] {
			t.Errorf("catalog order diverges from Points at %d: %s vs %s", i, p.Name, Points()[i])
		}
		// Every cataloged point parses as a bare spec term.
		if _, err := ParseFaults(p.Name); err != nil {
			t.Errorf("cataloged point %s does not parse: %v", p.Name, err)
		}
	}
}

func TestParseFaultsEqualsAlias(t *testing.T) {
	in, err := ParseFaults("run.transient=0.25,worker.crash=2,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if !in.Enabled(FaultRunTransient) || !in.Enabled(FaultWorkerCrash) {
		t.Fatal("'=' alias terms not armed")
	}
	// Count mode via '=' behaves identically to ':'.
	fired := 0
	for i := 0; i < 10; i++ {
		if in.Fire(FaultWorkerCrash) {
			fired++
		}
	}
	if fired != 2 {
		t.Errorf("worker.crash=2 fired %d times, want 2", fired)
	}
}

func TestParseFaultsEmptyMeansNoInjection(t *testing.T) {
	in, err := ParseFaults("")
	if err != nil || in != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", in, err)
	}
	// The nil injector is fully usable.
	if in.Fire(FaultKernelPanic) || in.Fired(FaultKernelPanic) != 0 || in.Enabled(FaultKernelPanic) {
		t.Error("nil injector fired")
	}
	if in.String() != "" {
		t.Errorf("nil injector String = %q", in.String())
	}
}

func TestInjectorCountMode(t *testing.T) {
	in, err := ParseFaults("manifest.torn:3")
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 100; i++ {
		if in.Fire(FaultTornManifest) {
			if i >= 3 {
				t.Fatalf("count-mode fault fired at evaluation %d", i)
			}
			fired++
		}
	}
	if fired != 3 || in.Fired(FaultTornManifest) != 3 {
		t.Errorf("fired %d (reported %d), want exactly 3", fired, in.Fired(FaultTornManifest))
	}
	// Unarmed points never fire even on an armed injector.
	if in.Fire(FaultKernelPanic) {
		t.Error("unarmed point fired")
	}
}

func TestInjectorProbabilityDeterministicPerSeed(t *testing.T) {
	pattern := func(seed uint64) []bool {
		in, err := ParseFaults(fmt.Sprintf("run.transient:0.5,seed=%d", seed))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Fire(FaultRunTransient)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at evaluation %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired < 60 || fired > 140 {
		t.Errorf("p=0.5 fired %d/200 times, wildly off", fired)
	}
	c := pattern(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical patterns")
	}
	// Probability extremes.
	never, _ := ParseFaults("run.transient:0.0")
	always, _ := ParseFaults("run.transient:1.0")
	for i := 0; i < 50; i++ {
		if never.Fire(FaultRunTransient) {
			t.Fatal("p=0 fired")
		}
		if !always.Fire(FaultRunTransient) {
			t.Fatal("p=1 did not fire")
		}
	}
}

func TestInjectorConcurrentCountExact(t *testing.T) {
	in, err := ParseFaults("run.transient:25,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if in.Fire(FaultRunTransient) {
					fired.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if fired.Load() != 25 {
		t.Errorf("count mode fired %d times under concurrency, want exactly 25", fired.Load())
	}
}

func TestTransientClassification(t *testing.T) {
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) != nil")
	}
	base := errors.New("boom")
	te := MarkTransient(base)
	if !IsTransient(te) {
		t.Error("marked error not transient")
	}
	if !errors.Is(te, base) {
		t.Error("transient wrapper broke errors.Is")
	}
	wrapped := fmt.Errorf("attempt 2: %w", te)
	if !IsTransient(wrapped) {
		t.Error("wrapping hid the transient marker")
	}
	if IsTransient(base) || IsTransient(nil) {
		t.Error("unmarked error classified transient")
	}
	// Watchdog causes are transient by definition.
	if !IsTransient(fmt.Errorf("spec x: %w", ErrRunTimeout)) || !IsTransient(ErrRunStalled) {
		t.Error("watchdog causes not transient")
	}
}

func TestPolicyAttemptsAndDelay(t *testing.T) {
	if (Policy{}).Attempts() != 1 || (Policy{MaxAttempts: -3}).Attempts() != 1 {
		t.Error("zero policy must mean one attempt")
	}
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	var prev time.Duration
	for attempt := 1; attempt <= 5; attempt++ {
		d := p.Delay(attempt, 7)
		lo := min(p.BaseDelay<<(attempt-1), p.MaxDelay)
		// Backoff plus at most 50% jitter, capped.
		if d < lo || d > p.MaxDelay+p.MaxDelay/2 {
			t.Errorf("attempt %d delay %v outside [%v, %v]", attempt, d, lo, p.MaxDelay+p.MaxDelay/2)
		}
		if d2 := p.Delay(attempt, 7); d2 != d {
			t.Errorf("attempt %d delay not deterministic: %v vs %v", attempt, d, d2)
		}
		if attempt > 1 && d < prev/2 {
			t.Errorf("delay collapsed: attempt %d %v after %v", attempt, d, prev)
		}
		prev = d
	}
	// Zero-valued delays use the defaults.
	if d := (Policy{MaxAttempts: 2}).Delay(1, 0); d < DefaultBaseDelay || d > DefaultMaxDelay+DefaultMaxDelay/2 {
		t.Errorf("default delay %v out of range", d)
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	var nilB *Breaker
	if !nilB.Allow("k") || nilB.Failure("k", errors.New("x")) || nilB.Reason("k") != "" {
		t.Error("nil breaker must be inert")
	}
	if NewBreaker(0) != nil {
		t.Error("threshold 0 must disable the breaker")
	}

	b := NewBreaker(3)
	errBoom := errors.New("bad config")
	for i := 0; i < 2; i++ {
		if b.Failure("k", errBoom) {
			t.Fatalf("opened after %d failures, threshold 3", i+1)
		}
		if !b.Allow("k") {
			t.Fatal("closed circuit disallowed work")
		}
	}
	// A success resets the consecutive count.
	b.Success("k")
	b.Failure("k", errBoom)
	b.Failure("k", errBoom)
	if !b.Allow("k") {
		t.Fatal("reset did not take")
	}
	if !b.Failure("k", errBoom) {
		t.Fatal("third consecutive failure did not open the circuit")
	}
	if b.Allow("k") {
		t.Error("open circuit allowed work")
	}
	if r := b.Reason("k"); !strings.Contains(r, "bad config") {
		t.Errorf("reason %q does not name the failure", r)
	}
	// Keys are independent.
	if !b.Allow("other") {
		t.Error("unrelated key tripped")
	}
}

func TestWatchdogTimeout(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	beats := func() int64 { return time.Now().UnixNano() } // always progressing
	w := Watch(cancel, WatchdogConfig{Timeout: 30 * time.Millisecond, StallTimeout: time.Second}, beats)
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("deadline never fired")
	}
	if !errors.Is(context.Cause(ctx), ErrRunTimeout) {
		t.Errorf("cause = %v, want ErrRunTimeout", context.Cause(ctx))
	}
	w.Stop()
}

func TestWatchdogStallAndProgress(t *testing.T) {
	// A frozen heartbeat trips the stall detector...
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	w := Watch(cancel, WatchdogConfig{StallTimeout: 40 * time.Millisecond},
		func() int64 { return 7 })
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("stall never fired")
	}
	if !errors.Is(context.Cause(ctx), ErrRunStalled) {
		t.Errorf("cause = %v, want ErrRunStalled", context.Cause(ctx))
	}
	w.Stop()

	// ...while an advancing heartbeat survives well past StallTimeout.
	ctx2, cancel2 := context.WithCancelCause(context.Background())
	defer cancel2(nil)
	var beat atomic.Int64
	stopFeed := make(chan struct{})
	go func() {
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stopFeed:
				return
			case <-tk.C:
				beat.Add(1)
			}
		}
	}()
	w2 := Watch(cancel2, WatchdogConfig{StallTimeout: 40 * time.Millisecond}, beat.Load)
	select {
	case <-ctx2.Done():
		t.Errorf("progressing run canceled: %v", context.Cause(ctx2))
	case <-time.After(150 * time.Millisecond):
	}
	close(stopFeed)
	w2.Stop()
	w2.Stop() // idempotent
	var nilW *Watchdog
	nilW.Stop() // nil-safe
}
