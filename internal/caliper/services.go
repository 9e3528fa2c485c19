package caliper

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the service-configuration layer of the recorder, modeled
// on Caliper's CALI_CONFIG mechanism: measurement services are named and
// enabled per run. Two kinds of service exist:
//
//   - counter sources (the PAPI analog): sampled at region Begin/End,
//     their deltas recorded as per-region metrics;
//   - structural services ("trace", "imbalance"): not counter sources,
//     they enable the streaming event trace and the executor's per-lane
//     load-imbalance instrumentation, wired up by the suite driver.

// Counter describes one metric a CounterSource emits. Cumulative
// counters (Gauge false) are recorded as the End-Begin delta; gauges are
// recorded as the value observed at End.
type Counter struct {
	Name  string
	Gauge bool
}

// CounterSource is a pluggable per-region counter provider — the role
// PAPI plays in real Caliper. A built-in source is named by its service
// name in the sources table; any other is passed in Config.Sources.
// Sample fills buf with the current value of each counter, in the order
// returned by Counters.
// Implementations need not be safe for concurrent Sample calls: a
// Recorder samples only from the goroutine driving Begin/End.
type CounterSource interface {
	// Counters lists the metrics this source emits.
	Counters() []Counter
	// Sample fills buf (len == len(Counters())) with current values.
	Sample(buf []float64)
}

// The structural (non-counter) service names.
const (
	// ServiceTrace enables the streaming Chrome-trace event service.
	ServiceTrace = "trace"
	// ServiceImbalance enables per-lane executor instrumentation and
	// the derived load-imbalance metrics.
	ServiceImbalance = "imbalance"
)

// sources maps each counter-source service name to the factory of its
// source.
var sources = map[string]func() CounterSource{
	"null":    func() CounterSource { return nullSource{} },
	"runtime": newRuntimeSource,
}

// ServiceNames returns every enableable service name, sorted: the
// counter sources plus the structural services.
func ServiceNames() []string {
	names := []string{ServiceTrace, ServiceImbalance}
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Services is the set of measurement services enabled for one run — the
// CALI_CONFIG analog.
type Services map[string]bool

// ParseServices parses a comma-separated service list ("runtime,trace").
// The empty string yields an empty set. Unknown names are errors, so a
// typoed -services flag fails loudly instead of silently measuring less.
func ParseServices(spec string) (Services, error) {
	s := Services{}
	if strings.TrimSpace(spec) == "" {
		return s, nil
	}
	known := map[string]bool{}
	for _, n := range ServiceNames() {
		known[n] = true
	}
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("caliper: unknown service %q (known: %s)",
				name, strings.Join(ServiceNames(), ", "))
		}
		s[name] = true
	}
	return s, nil
}

// Enabled reports whether service name is in the set.
func (s Services) Enabled(name string) bool { return s[name] }

// String renders the set as a sorted comma-separated list ("" if empty),
// the form recorded in run metadata.
func (s Services) String() string {
	names := make([]string, 0, len(s))
	for n, on := range s {
		if on {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// CounterSources instantiates one source per enabled counter-source
// service, in sorted name order for deterministic metric layout.
func (s Services) CounterSources() []CounterSource {
	var out []CounterSource
	for _, name := range ServiceNames() {
		if factory, ok := sources[name]; ok && s[name] {
			out = append(out, factory())
		}
	}
	return out
}

// nullSource is a counter source whose counters are always zero. It
// exercises the recorder's full per-region sampling path at negligible
// read cost, so enabling "null" isolates the instrumentation framework's
// own overhead — the baseline for overhead self-measurement.
type nullSource struct{}

func (nullSource) Counters() []Counter {
	return []Counter{{Name: "null.zero"}, {Name: "null.gauge", Gauge: true}}
}

func (nullSource) Sample(buf []float64) {
	for i := range buf {
		buf[i] = 0
	}
}
