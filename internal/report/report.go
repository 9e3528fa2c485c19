// Package report generates the RAJA Performance Suite's classic run
// reports: the per-kernel timing report comparing variants (the suite's
// RAJAPerf-timing output), the checksum report verifying that all variants
// of each kernel compute the same answer (RAJAPerf-checksum), and the
// strong-scaling table. Reports are views over host suite runs: each time
// and checksum is a kernel node's wall_time and checksum from suite.Run
// on machine.Host(), the numbers a Host -execute profile records.
package report

import (
	"fmt"
	"sort"
	"strings"

	"rajaperf/internal/caliper"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/raja"
	"rajaperf/internal/suite"
)

// defaultSize is the problem size of a report whose Config leaves it at
// zero: small enough to execute every kernel on a host in seconds.
const defaultSize = 100_000

// Config selects what to run and how. Every kernel runs its Base_Seq,
// RAJA_Seq, Base_OpenMP and RAJA_OpenMP variants.
type Config struct {
	Kernels []string // full names; empty = all registered
	Size    int      // problem size (0 = 100,000)
	Reps    int      // repetitions (0 = kernel defaults)
	Workers int
	// Schedule selects the parallel loop schedule of the OpenMP variants
	// (0 = back-end default).
	Schedule raja.Schedule
}

// KernelResult holds one kernel's measurements of the variants that ran.
type KernelResult struct {
	Name      string
	Times     map[kernels.VariantID]float64 // wall seconds over all reps
	Checksums map[kernels.VariantID]float64
}

// ChecksumConsistent reports whether all measured variants agree with the
// first variant's checksum within the suite tolerance.
func (r *KernelResult) ChecksumConsistent(order []kernels.VariantID) bool {
	var ref float64
	have := false
	for _, v := range order {
		cs, ok := r.Checksums[v]
		if !ok {
			continue
		}
		if !have {
			ref, have = cs, true
			continue
		}
		if !kernels.ChecksumsClose(cs, ref) {
			return false
		}
	}
	return true
}

// Report is the full run result.
type Report struct {
	Variants []kernels.VariantID
	Results  []KernelResult
}

// hostRun executes cfg's kernels on the host and returns the profile.
func hostRun(cfg suite.Config) (*caliper.Profile, error) {
	cfg.Machine, cfg.Execute = machine.Host(), true
	if cfg.SizePerNode <= 0 {
		cfg.SizePerNode = defaultSize
	}
	return suite.Run(cfg)
}

// Run makes one host suite run per variant and reads each kernel's time
// and checksum from its node. Every run sets up each kernel afresh, so
// kernels that accumulate into their outputs compare the same pass.
func Run(cfg Config) (*Report, error) {
	names := cfg.Kernels
	if len(names) == 0 {
		names = kernels.Names()
	}
	rep := &Report{
		Variants: []kernels.VariantID{kernels.BaseSeq, kernels.RAJASeq,
			kernels.BaseOpenMP, kernels.RAJAOpenMP},
		Results: make([]KernelResult, len(names)),
	}
	for i, name := range names {
		rep.Results[i] = KernelResult{Name: name,
			Times: map[kernels.VariantID]float64{}, Checksums: map[kernels.VariantID]float64{}}
	}
	for _, v := range rep.Variants {
		p, err := hostRun(suite.Config{Variant: v, Kernels: names,
			SizePerNode: cfg.Size, Reps: cfg.Reps, Workers: cfg.Workers,
			Schedule: cfg.Schedule})
		if err != nil {
			return nil, err
		}
		// A kernel without the variant has no node, and a failed one has
		// an error and no wall_time.
		for _, res := range rep.Results {
			if rec := p.Find(res.Name); rec != nil && rec.Metrics["error"] == 0 {
				res.Times[v] = rec.Metrics["wall_time"]
				res.Checksums[v] = rec.Metrics["checksum"]
			}
		}
	}
	return rep, nil
}

// Timing renders the classic timing report: one row per kernel, one column
// per variant, times in milliseconds, plus the RAJA/Base ratio per
// back-end pair present.
func (r *Report) Timing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s", "Kernel")
	for _, v := range r.Variants {
		fmt.Fprintf(&b, " %13s", v)
	}
	b.WriteString("\n")
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%-34s", res.Name)
		for _, v := range r.Variants {
			if t, ok := res.Times[v]; ok {
				fmt.Fprintf(&b, " %12.3fms", t*1000)
			} else {
				fmt.Fprintf(&b, " %13s", "--")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Checksums renders the checksum report with a PASS/FAIL consistency
// column, the suite's cross-variant correctness check.
func (r *Report) Checksums() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %-22s %s\n", "Kernel", "Reference checksum", "Consistency")
	for _, res := range r.Results {
		var ref float64
		for _, v := range r.Variants {
			if cs, ok := res.Checksums[v]; ok {
				ref = cs
				break
			}
		}
		status := "PASS"
		if !res.ChecksumConsistent(r.Variants) {
			status = "FAIL"
		}
		if len(res.Times) == 0 {
			status = "SKIPPED"
		}
		fmt.Fprintf(&b, "%-34s %-22.12g %s\n", res.Name, ref, status)
	}
	return b.String()
}

// FailedKernels returns the kernels whose variants disagree on checksums.
func (r *Report) FailedKernels() []string {
	var out []string
	for _, res := range r.Results {
		if len(res.Times) > 0 && !res.ChecksumConsistent(r.Variants) {
			out = append(out, res.Name)
		}
	}
	sort.Strings(out)
	return out
}
