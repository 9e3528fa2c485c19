package suite

import (
	"testing"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/raja"
	"rajaperf/internal/thicket"
)

// TestRunWithServices is the end-to-end services check: a small executed
// suite slice with every service enabled must produce a profile carrying
// runtime-counter and lane-imbalance metric columns, overhead and
// executor metadata, absolute collection timestamps, and a populated
// event trace.
func TestRunWithServices(t *testing.T) {
	m, err := machine.ByName("Host")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := caliper.ParseServices("runtime,imbalance,trace")
	if err != nil {
		t.Fatal(err)
	}
	pool := raja.NewPool(2)
	defer pool.Close()
	tracer := caliper.NewTracer(pool.Lanes(), 4096)
	p, err := Run(Config{
		Machine:     m,
		Variant:     kernels.RAJAOpenMP,
		SizePerNode: 20_000,
		Reps:        1,
		Workers:     2,
		Kernels:     []string{"Stream_TRIAD", "Basic_DAXPY"},
		Execute:     true,
		Pool:        pool,
		Services:    svc,
		Tracer:      tracer,
	})
	if err != nil {
		t.Fatal(err)
	}

	rec := p.Find("Stream_TRIAD")
	if rec == nil {
		t.Fatal("Stream_TRIAD record missing")
	}
	for _, metric := range []string{
		"go.goroutines", "go.heap.allocs.bytes", // runtime counter source
		"imbalance_pct", "lane_busy_max_sec", "lane_busy_avg_sec", // imbalance service
		"lane_granules", "lane_wakes", "lanes_used",
	} {
		if _, ok := rec.Metrics[metric]; !ok {
			t.Errorf("kernel record missing service metric %q", metric)
		}
	}
	if rec.Metrics["lane_granules"] <= 0 {
		t.Errorf("lane_granules = %v, want > 0 for an executed parallel kernel",
			rec.Metrics["lane_granules"])
	}

	if got := p.Metadata["executor.services"]; got != "imbalance,runtime,trace" {
		t.Errorf("executor.services = %v", got)
	}
	if got := p.Metadata["executor.lanes"]; got != 2 {
		t.Errorf("executor.lanes = %v, want 2", got)
	}
	ovPerRegion, _ := p.Metadata["caliper.overhead.per_region_sec"].(float64)
	if ovPerRegion <= 0 {
		t.Errorf("caliper.overhead.per_region_sec = %v, want > 0", ovPerRegion)
	}
	// One overhead sample per region closed: each kernel run and "suite".
	if got, want := p.Metadata["caliper.overhead.samples"], p.Metadata["kernels_run"].(int)+1; got != want {
		t.Errorf("caliper.overhead.samples = %v, want %d (kernels run + 1)", got, want)
	}
	ovPct, ok := p.Metadata["caliper.overhead.pct"].(float64)
	if !ok || ovPct < 0 || ovPct > 100 {
		t.Errorf("caliper.overhead.pct = %v, want a percentage", p.Metadata["caliper.overhead.pct"])
	}

	begin, err := time.Parse(time.RFC3339Nano, p.Metadata["collection_begin"].(string))
	if err != nil {
		t.Fatalf("collection_begin: %v", err)
	}
	end, err := time.Parse(time.RFC3339Nano, p.Metadata["collection_end"].(string))
	if err != nil {
		t.Fatalf("collection_end: %v", err)
	}
	if end.Before(begin) {
		t.Errorf("collection_end %v before collection_begin %v", end, begin)
	}

	regions, laneEvents := map[string]bool{}, 0
	for _, ev := range tracer.Events() {
		switch ev.Cat {
		case "region":
			regions[ev.Name] = true
		case "lane":
			laneEvents++
		}
	}
	for _, want := range []string{"suite", "Stream_TRIAD", "Basic_DAXPY"} {
		if !regions[want] {
			t.Errorf("trace missing region event %q", want)
		}
	}
	if laneEvents == 0 {
		t.Error("trace has no lane events from the executor")
	}
	if d := tracer.Dropped(); d != 0 {
		t.Errorf("trace dropped %d events with ample buffer", d)
	}
}

// TestServicesMetricsGroupable round-trips service-produced profiles
// through Thicket and groups the new metric columns by executor
// metadata — the analysis workflow the services exist to feed.
func TestServicesMetricsGroupable(t *testing.T) {
	m, err := machine.ByName("Host")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := caliper.ParseServices("imbalance")
	if err != nil {
		t.Fatal(err)
	}
	var profiles []*caliper.Profile
	for _, sched := range []raja.Schedule{raja.ScheduleStatic, raja.ScheduleDynamic} {
		pool := raja.NewPool(2)
		p, err := Run(Config{
			Machine:     m,
			Variant:     kernels.RAJAOpenMP,
			SizePerNode: 20_000,
			Reps:        1,
			Workers:     2,
			Kernels:     []string{"Stream_TRIAD"},
			Execute:     true,
			Schedule:    sched,
			Pool:        pool,
			Services:    svc,
		})
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	tk := thicket.FromProfiles(profiles)
	groups := tk.GroupStats("executor.schedule", "imbalance_pct")
	if len(groups) != 2 {
		t.Fatalf("groups = %d (%v), want one per schedule", len(groups), groups)
	}
	for sched, stats := range groups {
		found := false
		for _, s := range stats {
			if s.Node == "Stream_TRIAD" && s.Count == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("group %q missing Stream_TRIAD imbalance stats: %v", sched, stats)
		}
	}
}

// TestSharedPoolRunsKeepTheirServices runs a whole run A on run B's pool
// between two of B's kernels, each run with the imbalance service and its
// own tracer: every kernel of both runs must record its lanes, and A's
// end must not switch off B's lane statistics or trace.
func TestSharedPoolRunsKeepTheirServices(t *testing.T) {
	svc, err := caliper.ParseServices("imbalance")
	if err != nil {
		t.Fatal(err)
	}
	pool := raja.NewPool(2)
	defer pool.Close()
	config := func(names []string, tr *caliper.Tracer) Config {
		return Config{
			Machine:     machine.Host(),
			Variant:     kernels.RAJAOpenMP,
			SizePerNode: 20_000,
			Reps:        1,
			Workers:     2,
			Kernels:     names,
			Execute:     true,
			Pool:        pool,
			Services:    svc,
			Tracer:      tr,
		}
	}
	laneEvents := func(tr *caliper.Tracer) (n int) {
		for _, ev := range tr.Events() {
			if ev.Cat == "lane" {
				n++
			}
		}
		return n
	}

	trA, trB := caliper.NewTracer(2, 4096), caliper.NewTracer(2, 4096)
	cfgA := config([]string{"Stream_COPY"}, trA)
	cfgB := config([]string{"Stream_TRIAD", "Basic_DAXPY", "Stream_ADD"}, trB)
	var pA *caliper.Profile
	var errA error
	boundaries, bEventsAtAEnd := 0, 0
	cfgB.Heartbeat = func() {
		if boundaries++; boundaries == 2 {
			pA, errA = Run(cfgA)
			bEventsAtAEnd = laneEvents(trB)
		}
	}
	pB, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if errA != nil {
		t.Fatal(errA)
	}

	for _, run := range []struct {
		name string
		p    *caliper.Profile
		cfg  Config
	}{{"A", pA, cfgA}, {"B", pB, cfgB}} {
		for _, name := range run.cfg.Kernels {
			rec := run.p.Find(name)
			if rec == nil {
				t.Fatalf("run %s: %s missing", run.name, name)
			}
			for _, metric := range []string{"lane_granules", "lanes_used"} {
				if rec.Metrics[metric] <= 0 {
					t.Errorf("run %s: %s recorded %s = %v, want > 0",
						run.name, name, metric, rec.Metrics[metric])
				}
			}
		}
	}
	if laneEvents(trA) == 0 {
		t.Error("run A's tracer holds no lane events")
	}
	if got := laneEvents(trB); got <= bEventsAtAEnd {
		t.Errorf("run B's tracer holds %d lane events, all %d of them from before run A ended",
			got, bEventsAtAEnd)
	}
}
