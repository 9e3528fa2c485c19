// Package analysis assembles the paper's experiments: it runs the suite
// over the modeled machines (through package campaign's orchestrator),
// composes the resulting Caliper profiles with package thicket, and
// regenerates every table and figure of the evaluation — the kernel
// inventory (Table I), machine characterization (Table II/III), NCU
// metric set (Table IV), analytic metrics (Fig 1), the TMA hierarchy and
// per-kernel top-down breakdowns (Fig 2-4), instruction rooflines (Fig
// 5), Ward clustering with per-cluster characterization (Fig 6-8), the
// memory-bound/speedup panels (Fig 9), and the bandwidth-versus-FLOPS
// trade-off (Fig 10).
package analysis

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/machine"
	"rajaperf/internal/thicket"
)

// Session runs and caches one suite execution per machine so the
// experiment generators can share them. Collection goes through the
// campaign orchestrator, so multi-machine figures can collect their
// profiles concurrently (Jobs) with one private executor pool per
// in-flight run.
type Session struct {
	// SizePerNode is the total node problem size (paper: 32M).
	SizePerNode int
	// Execute runs the real kernel computations in addition to the
	// hardware models.
	Execute bool
	// Jobs bounds how many machines Prefetch collects concurrently
	// (0 or 1 = one at a time).
	Jobs int

	// runMu serializes collection, so concurrent figure generators
	// never run the same machine twice; mu guards only the cache map.
	runMu    sync.Mutex
	mu       sync.Mutex
	profiles map[string]*caliper.Profile

	// tkMu guards the composed-thicket memo: identical requests return
	// the memoized view (whose engine-level query cache they then share).
	tkMu     sync.Mutex
	thickets map[string]*thicket.Thicket
}

// NewSession returns a session with the given node problem size (0 =
// suite default).
func NewSession(sizePerNode int, execute bool) *Session {
	return &Session{
		SizePerNode: sizePerNode,
		Execute:     execute,
		profiles:    map[string]*caliper.Profile{},
	}
}

// cached returns the machines of ms that have no cached profile yet.
func (s *Session) cached(ms []*machine.Machine) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var missing []string
	for _, m := range ms {
		if _, ok := s.profiles[m.Shorthand]; !ok {
			missing = append(missing, m.Shorthand)
		}
	}
	return missing
}

// Prefetch collects the suite profiles of every listed machine that is
// not cached yet, running up to s.Jobs collections concurrently through
// the campaign orchestrator (each with the machine's Table III variant).
func (s *Session) Prefetch(ms ...*machine.Machine) error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	missing := s.cached(ms)
	if len(missing) == 0 {
		return nil
	}
	plan := campaign.Plan{
		Machines: missing,
		Sizes:    []int{s.SizePerNode},
		Execute:  s.Execute,
	}
	res, err := campaign.Run(context.Background(), plan, campaign.Options{
		Workers: max(s.Jobs, 1),
		Retain:  true,
	})
	if err != nil {
		return fmt.Errorf("analysis: collecting profiles: %w", err)
	}
	s.mu.Lock()
	for _, sr := range res.Specs {
		if sr.Status == campaign.StatusDone {
			s.profiles[sr.Spec.Machine] = sr.Profile
		}
	}
	s.mu.Unlock()
	if err := res.Err(); err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	return nil
}

// LoadDir seeds the session's profile cache from a campaign output
// directory instead of running the suite, reading leniently: profiles
// that fail to decode are skipped and returned as FileErrors for the
// caller to report, so one torn file never blocks an analysis over an
// otherwise healthy campaign. Profiles are keyed by their "machine"
// metadata; the first profile per machine wins and already-cached
// machines are not overwritten, and only a profile that wins is built.
// It returns how many profiles were loaded into the cache.
func (s *Session) LoadDir(dir string) (int, []caliper.FileError, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	loaded := 0
	ferrs, err := caliper.WalkDirLenient(dir, func(path string, r *caliper.Rows) error {
		m, _ := r.Metadata["machine"].(string)
		if m == "" {
			return nil
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.profiles[m]; !ok {
			s.profiles[m] = r.Profile()
			loaded++
		}
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("analysis: %w", err)
	}
	return loaded, ferrs, nil
}

// Profile returns the cached suite profile for machine m, running the
// suite on first use with the Table III variant for that machine.
func (s *Session) Profile(m *machine.Machine) (*caliper.Profile, error) {
	if err := s.Prefetch(m); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.profiles[m.Shorthand]
	if !ok {
		return nil, fmt.Errorf("analysis: no profile collected for %s", m)
	}
	return p, nil
}

// Thicket composes the profiles of the given machines, collecting any
// that are missing (concurrently when Jobs > 1). Compositions are
// memoized: repeating a request returns the same view. Views and their
// aggregation results are shared — treat them as read-only.
func (s *Session) Thicket(ms ...*machine.Machine) (*thicket.Thicket, error) {
	if err := s.Prefetch(ms...); err != nil {
		return nil, err
	}
	names := make([]string, len(ms))
	ps := make([]*caliper.Profile, 0, len(ms))
	for i, m := range ms {
		p, err := s.Profile(m)
		if err != nil {
			return nil, err
		}
		names[i] = m.Shorthand
		ps = append(ps, p)
	}
	key := strings.Join(names, "\x00")

	s.tkMu.Lock()
	defer s.tkMu.Unlock()
	if tk, ok := s.thickets[key]; ok {
		return tk, nil
	}
	tk := thicket.FromProfiles(ps)
	if s.thickets == nil {
		s.thickets = map[string]*thicket.Thicket{}
	}
	s.thickets[key] = tk
	return tk, nil
}

// MachineThicket returns a single-machine Thicket.
func (s *Session) MachineThicket(m *machine.Machine) (*thicket.Thicket, error) {
	return s.Thicket(m)
}
