package caliper

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// refRecorder is the reference the Recorder's region tree is checked
// against: a single-goroutine recorder that keys records by their joined
// path, with the same first-touch order, "main" pseudo-root and End
// errors. It keeps no time.
type refRecorder struct {
	stack   []string
	records map[string]*Record
	order   []string
	closed  int // regions closed
}

func newRefRecorder() *refRecorder {
	return &refRecorder{records: map[string]*Record{}}
}

func (r *refRecorder) ensure(path []string) *Record {
	key := strings.Join(path, PathSep)
	if rec, ok := r.records[key]; ok {
		return rec
	}
	rec := &Record{Path: append([]string(nil), path...), Metrics: map[string]float64{}}
	r.records[key] = rec
	r.order = append(r.order, key)
	return rec
}

func (r *refRecorder) current() []string {
	if len(r.stack) == 0 {
		return []string{"main"}
	}
	return r.stack
}

func (r *refRecorder) begin(name string) {
	r.stack = append(r.stack, name)
	r.ensure(r.stack)
}

func (r *refRecorder) end(name string) error {
	if len(r.stack) == 0 {
		return fmt.Errorf("caliper: End(%q) with no open region", name)
	}
	if top := r.stack[len(r.stack)-1]; top != name {
		return fmt.Errorf("caliper: End(%q) does not match open region %q", name, top)
	}
	rec := r.ensure(r.stack)
	rec.Metrics["time"] += 0
	rec.Metrics["count"]++
	r.stack = r.stack[:len(r.stack)-1]
	r.closed++
	return nil
}

func (r *refRecorder) profile() []Record {
	out := make([]Record, 0, len(r.order))
	for _, key := range r.order {
		out = append(out, *r.records[key])
	}
	return out
}

// Recorder fuzz alphabet: three region names, one of them the "main"
// pseudo-root, and three metrics, one of them the "count" that End bumps
// and SetMetric can overwrite.
var (
	fuzzNames   = [3]string{"a", "b", "main"}
	fuzzMetrics = [3]string{"x", "y", "count"}
)

// Recorder fuzz opcodes: each op byte is opcode + 6*argument.
const (
	opBegin = iota
	opEnd
	opSetMetric
	opSetMetricAt
	numOps
)

// FuzzRecorderMatchesReference decodes its input into Begin, End,
// SetMetric and SetMetricAt calls at depth <= 3 and checks the Recorder
// against refRecorder: every End's error and the open depth after each
// call, then the regions closed (Overhead().Samples) and the profile's
// record order, paths and metrics ("time" only for presence).
//
// Op encoding: Begin and End take name fuzzNames[arg%3] (a Begin past
// depth 3 is dropped); SetMetric reads one more byte m for metric
// fuzzMetrics[m%3] and value m/3; SetMetricAt reads 1+arg%3 name bytes,
// then a metric byte.
func FuzzRecorderMatchesReference(f *testing.F) {
	const a, b, main = 0, 1, 2 // name arguments
	op := func(code, arg int) byte { return byte(code + numOps*arg) }
	for _, seed := range [][]byte{
		// SetMetricAt walks through the prefix "a" without touching
		// it: a/b's record must come before a's.
		{op(opSetMetricAt, 1), a, b, 3, op(opBegin, a), op(opEnd, a)},
		// The "main" pseudo-root, then a region named main.
		{op(opSetMetric, 0), 4, op(opBegin, main), op(opSetMetric, 0), 7, op(opEnd, main)},
		// Misnested End, End on an empty stack, and a region closed
		// twice so "count" accumulates.
		{op(opBegin, a), op(opBegin, b), op(opEnd, a), op(opEnd, b), op(opEnd, a), op(opEnd, a),
			op(opBegin, a), op(opEnd, a)},
		// Depth 3 plus a dropped fourth Begin, and a three-name path
		// sharing a prefix with the open regions.
		{op(opBegin, a), op(opBegin, b), op(opBegin, a), op(opBegin, b), op(opSetMetricAt, 2), a, b, b, 5,
			op(opEnd, a), op(opEnd, b), op(opEnd, a)},
		// SetMetric("count") on an open region changes its record's
		// count, not the number of regions closed.
		{op(opBegin, b), op(opSetMetric, 0), 2 + 3*9, op(opEnd, b), op(opSetMetricAt, 0), b, 2},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, ref := NewRecorderWith(Config{}), newRefRecorder()
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		metric := func() (string, float64) {
			m := next()
			return fuzzMetrics[m%3], float64(m / 3)
		}
		path := func(arg int) []string {
			p := make([]string, 1+arg%3)
			for i := range p {
				p[i] = fuzzNames[next()%3]
			}
			return p
		}
		for pos < len(data) {
			b := next()
			code, arg := b%numOps, b/numOps
			switch code {
			case opBegin:
				if len(ref.stack) < 3 {
					name := fuzzNames[arg%3]
					rec.Begin(name)
					ref.begin(name)
				}
			case opEnd:
				name := fuzzNames[arg%3]
				got, want := rec.End(name), ref.end(name)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("End(%q) = %v, reference %v", name, got, want)
				}
			case opSetMetric:
				m, v := metric()
				rec.SetMetric(m, v)
				ref.ensure(ref.current()).Metrics[m] = v
			case opSetMetricAt:
				p := path(arg)
				m, v := metric()
				rec.SetMetricAt(p, m, v)
				ref.ensure(p).Metrics[m] = v
			}
			if got, want := rec.OpenDepth(), len(ref.stack); got != want {
				t.Fatalf("OpenDepth = %d, reference %d", got, want)
			}
		}
		if got, want := rec.Overhead().Samples, ref.closed; got != want {
			t.Errorf("Overhead().Samples = %d, reference closed %d regions", got, want)
		}
		got, want := rec.Profile().Records, ref.profile()
		if len(got) != len(want) {
			t.Fatalf("%d records, reference %d:\n got %v\nwant %v", len(got), len(want), got, want)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i].Path, want[i].Path) {
				t.Fatalf("record %d path %q, reference %q", i, got[i].Path, want[i].Path)
			}
			if len(got[i].Metrics) != len(want[i].Metrics) {
				t.Fatalf("record %q metrics %v, reference %v", got[i].PathKey(), got[i].Metrics, want[i].Metrics)
			}
			for m, w := range want[i].Metrics {
				g, ok := got[i].Metrics[m]
				if !ok || (m != "time" && math.Float64bits(g) != math.Float64bits(w)) {
					t.Fatalf("record %q metric %q = %v (present %v), reference %v",
						got[i].PathKey(), m, g, ok, w)
				}
			}
		}
	})
}

// TestRecorderHotPathAllocs checks that, with no counter sources and no
// tracer, annotating a node that already has a record allocates nothing.
func TestRecorderHotPathAllocs(t *testing.T) {
	c := NewRecorderWith(Config{})
	path := []string{"suite", "k"}
	c.Begin("suite")
	c.Region("k", func() {})
	defer c.End("suite") //nolint:errcheck // matched Begin above
	for _, tc := range []struct {
		name string
		inK  bool // time f with suite/k open, the node SetMetric lands on
		f    func()
	}{
		{"Begin+End", false, func() {
			c.Begin("k")
			c.End("k") //nolint:errcheck // matched Begin above
		}},
		{"SetMetric", true, func() { c.SetMetric("m", 1) }},
		{"SetMetricAt", false, func() { c.SetMetricAt(path, "s", 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.inK {
				c.Begin("k")
				defer c.End("k") //nolint:errcheck // matched Begin above
			}
			if n := testing.AllocsPerRun(200, tc.f); n != 0 {
				t.Errorf("%s allocates %v times per call, want 0", tc.name, n)
			}
		})
	}
}

// TestRecorderConcurrentMetricWriters exercises the concurrency
// contract: metric writers on other goroutines, on new and existing
// paths, while the driving goroutine opens and closes regions and a
// reader takes profiles. Every writer's last value must land.
func TestRecorderConcurrentMetricWriters(t *testing.T) {
	const writers, iters, driverRegions = 4, 512, 300
	c := NewRecorderWith(Config{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := []string{"writer", fmt.Sprint(w)}
			for i := 0; i < iters; i++ {
				c.SetMetricAt([]string{"suite", "k"}, fmt.Sprint("hits", w), float64(i+1))
				c.SetMetricAt(own, "n", float64(i+1))
				c.SetMetricAt([]string{"suite", fmt.Sprint("k", i%8)}, fmt.Sprint("w", w), float64(i))
			}
		}()
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				if err := c.Profile().Validate(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < driverRegions; i++ {
		c.Begin("suite")
		c.Begin("k")
		c.SetMetric("driver", float64(i+1))
		if err := c.End("k"); err != nil {
			t.Fatal(err)
		}
		if err := c.End("suite"); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(stop)
	<-readerDone

	p := c.Profile()
	k := p.Find("k")
	if k == nil || k.PathKey() != "suite/k" {
		t.Fatalf("suite/k record = %v", k)
	}
	if k.Metrics["driver"] != driverRegions || k.Metrics["count"] != driverRegions {
		t.Errorf("suite/k metrics = %v, want driver and count %d", k.Metrics, driverRegions)
	}
	for w := 0; w < writers; w++ {
		if got := k.Metrics[fmt.Sprint("hits", w)]; got != iters {
			t.Errorf("suite/k hits%d = %v, want %d", w, got, iters)
		}
	}
	for w := 0; w < writers; w++ {
		key := fmt.Sprint("writer/", w)
		var rec *Record
		for i := range p.Records {
			if p.Records[i].PathKey() == key {
				rec = &p.Records[i]
			}
		}
		if rec == nil || rec.Metrics["n"] != iters {
			t.Errorf("%s = %v, want n %d", key, rec, iters)
		}
	}
	for j := 0; j < 8; j++ {
		r := p.Find(fmt.Sprint("k", j))
		if r == nil {
			t.Fatalf("suite/k%d missing", j)
		}
		last := float64(iters - 8 + j)
		for w := 0; w < writers; w++ {
			if got := r.Metrics[fmt.Sprint("w", w)]; got != last {
				t.Errorf("suite/k%d w%d = %v, want %v", j, w, got, last)
			}
		}
	}
	if got := c.Overhead().Samples; got != 2*driverRegions {
		t.Errorf("Overhead().Samples = %d, want %d", got, 2*driverRegions)
	}
}
