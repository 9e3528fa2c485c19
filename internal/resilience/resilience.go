// Package resilience keeps long collection campaigns alive through the
// failures the paper's methodology must absorb at scale: hundreds of
// profiles collected across machines and variants, where one panicking
// kernel, one hung run, or one torn manifest write must degrade to a
// recorded incident instead of a poisoned dataset.
//
// The package provides four independent mechanisms, threaded through the
// campaign orchestrator, the suite runner, and the caliper I/O layer:
//
//   - Injector (this file): a deterministic, seed-driven fault injector
//     with a fixed catalog of named fault points, so every failure mode
//     the rest of the package handles is reproducible under -race.
//   - Policy (retry.go): exponential backoff with deterministic jitter
//     for transiently-failed runs, plus the TransientError marker the
//     orchestrator uses to decide what is worth retrying.
//   - Breaker (breaker.go): a per-key circuit breaker that stops
//     rescheduling work after K consecutive non-transient failures.
//   - Watchdog (watchdog.go): per-run deadlines and executor-heartbeat
//     stall detection, canceling hung runs through the ordinary context
//     plumbing with a distinguishable cause.
package resilience

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// The fault-point catalog. Every injectable failure mode has a stable
// name, used both in the -faults flag and at the injection site.
const (
	// FaultKernelPanic panics inside a kernel's execution path (suite
	// layer), exercising per-kernel fault isolation and run retry.
	FaultKernelPanic = "kernel.panic"
	// FaultSlowLane wedges a kernel until its run context is canceled
	// (suite layer), exercising the watchdog's hung-run detection.
	FaultSlowLane = "lane.slow"
	// FaultRunTransient fails a campaign run attempt with a transient
	// error before it starts (orchestrator layer), exercising
	// retry/backoff.
	FaultRunTransient = "run.transient"
	// FaultTornManifest truncates one manifest journal append mid-record
	// (record layer), simulating a crash during a WAL write.
	FaultTornManifest = "manifest.torn"
	// FaultCorruptProfile corrupts a recorded profile's bytes after the
	// write (record layer), exercising quarantine + lenient reads.
	FaultCorruptProfile = "profile.corrupt"
	// FaultWorkerCrash crashes the worker process an assignment lands on
	// (fabric coordinator layer), exercising redispatch and respawn.
	FaultWorkerCrash = "worker.crash"
)

// Point describes one catalog entry: its stable name and a one-line
// operator-facing description (`rajaperf -faults list`).
type Point struct {
	Name, Desc string
}

// Catalog lists every fault point with its description, sorted by name.
func Catalog() []Point {
	ps := []Point{
		{FaultKernelPanic, "panic inside a kernel's execution path (per-kernel isolation, run retry)"},
		{FaultSlowLane, "wedge a kernel until its run is canceled (watchdog stall detection)"},
		{FaultRunTransient, "fail a run attempt with a transient error before it starts (retry/backoff)"},
		{FaultTornManifest, "truncate one manifest WAL append mid-record (crash-consistent recovery)"},
		{FaultCorruptProfile, "corrupt a recorded profile's bytes after the write (quarantine, lenient reads)"},
		{FaultWorkerCrash, "crash the worker process an assignment lands on (redispatch + respawn)"},
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// Points lists the fault-point catalog names, sorted.
func Points() []string {
	cat := Catalog()
	ps := make([]string, len(cat))
	for i, p := range cat {
		ps[i] = p.Name
	}
	return ps
}

// faultPoint is one armed point: either probability mode (prob in [0,1],
// evaluated independently per Fire ordinal) or count mode (the first
// `count` evaluations fire). evals orders concurrent Fire calls; fired
// tallies injections for reporting.
type faultPoint struct {
	prob  float64 // probability mode; < 0 means count mode
	count int64
	evals atomic.Int64
	fired atomic.Int64
}

// Injector decides, deterministically, whether a named fault point fires
// at each evaluation. A nil *Injector is valid and never fires, so
// fault-free paths carry no conditional plumbing.
//
// Determinism: each point keeps its own evaluation counter, and a
// probability-mode decision depends only on (seed, point, ordinal) —
// concurrent callers may interleave ordinals differently between runs,
// but the multiset of decisions per point is identical for a given seed.
// Count mode fires the first N evaluations exactly, regardless of
// interleaving. All methods are safe for concurrent use.
type Injector struct {
	seed   uint64
	points map[string]*faultPoint
	spec   string
}

// ParseFaults builds an Injector from a spec string:
//
//	point[:arg][,point[:arg]...][,seed=N]
//
// where point is a catalog name (Points), and arg is either a
// probability — a float in [0,1] containing a '.' — or a positive
// integer count meaning "fire the first N evaluations". A bare point
// fires on every evaluation. '=' is accepted as an alias for ':'
// ("run.transient=0.1" ≡ "run.transient:0.1"). An empty spec returns
// (nil, nil): no injection.
//
//	"run.transient:0.3,seed=42"   30% of run attempts fail transiently
//	"manifest.torn:1"             exactly the first journal append tears
//	"kernel.panic:2,lane.slow:1"  two kernel panics, one hung kernel
func ParseFaults(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	catalog := map[string]bool{}
	for _, p := range Points() {
		catalog[p] = true
	}
	in := &Injector{seed: 1, points: map[string]*faultPoint{}, spec: spec}
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		if v, ok := strings.CutPrefix(term, "seed="); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("resilience: bad fault seed %q: %v", v, err)
			}
			in.seed = n
			continue
		}
		name, arg, hasArg := strings.Cut(term, ":")
		if !hasArg {
			// '=' alias, checked after the seed= prefix above so the seed
			// term never reaches here.
			name, arg, hasArg = strings.Cut(term, "=")
		}
		if !catalog[name] {
			return nil, fmt.Errorf("resilience: unknown fault point %q (catalog: %s)",
				name, strings.Join(Points(), ", "))
		}
		if _, dup := in.points[name]; dup {
			return nil, fmt.Errorf("resilience: fault point %q listed twice", name)
		}
		fp := &faultPoint{prob: 1, count: -1}
		if hasArg {
			switch {
			case strings.ContainsAny(arg, ".eE"):
				p, err := strconv.ParseFloat(arg, 64)
				if err != nil || p < 0 || p > 1 {
					return nil, fmt.Errorf("resilience: fault %s: probability %q not in [0,1]", name, arg)
				}
				fp.prob = p
			default:
				n, err := strconv.ParseInt(arg, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("resilience: fault %s: count %q must be a positive integer", name, arg)
				}
				fp.prob, fp.count = -1, n
			}
		}
		in.points[name] = fp
	}
	if len(in.points) == 0 {
		return nil, fmt.Errorf("resilience: fault spec %q names no fault points", spec)
	}
	return in, nil
}

// Fire evaluates the named fault point once and reports whether it
// fires. Unarmed points (and a nil Injector) never fire.
func (in *Injector) Fire(point string) bool {
	if in == nil {
		return false
	}
	fp := in.points[point]
	if fp == nil {
		return false
	}
	ord := fp.evals.Add(1) - 1
	var fire bool
	if fp.prob < 0 {
		fire = ord < fp.count
	} else {
		h := mix64(in.seed ^ strhash(point) ^ mix64(uint64(ord)))
		fire = float64(h>>11)/(1<<53) < fp.prob
	}
	if fire {
		fp.fired.Add(1)
		noteFault(point)
	}
	return fire
}

// Fired reports how many times the named point has fired so far.
func (in *Injector) Fired(point string) int64 {
	if in == nil {
		return 0
	}
	if fp := in.points[point]; fp != nil {
		return fp.fired.Load()
	}
	return 0
}

// String returns the spec the injector was parsed from ("" for nil).
func (in *Injector) String() string {
	if in == nil {
		return ""
	}
	return in.spec
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed hash used
// for seed-deterministic decisions (no global PRNG state, race-free).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// strhash is FNV-1a over s, mixing a point name into the decision hash.
func strhash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
