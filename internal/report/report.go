// Package report generates the RAJA Performance Suite's classic run
// reports: the per-kernel timing report comparing variants (the suite's
// RAJAPerf-timing output), the checksum report verifying that all variants
// of each kernel compute the same answer (RAJAPerf-checksum), and a CSV
// form of the timing data for external tooling. Reports come from real
// host execution, not the hardware models.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Config selects what to run and how. Every kernel runs its Base_Seq,
// RAJA_Seq, Base_OpenMP and RAJA_OpenMP variants.
type Config struct {
	Kernels []string // full names; empty = all registered
	Size    int      // per-rank problem size (0 = kernel defaults)
	Reps    int      // repetitions (0 = kernel defaults)
	Workers int
	// Schedule selects the parallel loop schedule of the OpenMP variants
	// (0 = back-end default).
	Schedule raja.Schedule
}

// KernelResult holds one kernel's measurements across variants.
type KernelResult struct {
	Name      string
	Times     map[kernels.VariantID]float64 // best-of-passes wall seconds
	Checksums map[kernels.VariantID]float64
	Skipped   []kernels.VariantID // declared variants that failed to run
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

// Run executes the configured kernels and variants on the host and
// gathers timing and checksum data.
func Run(cfg Config) (*Report, error) {
	names := cfg.Kernels
	if len(names) == 0 {
		names = kernels.Names()
	}
	variants := []kernels.VariantID{
		kernels.BaseSeq, kernels.RAJASeq,
		kernels.BaseOpenMP, kernels.RAJAOpenMP,
	}
	rep := &Report{Variants: variants}
	for _, name := range names {
		k, err := kernels.New(name)
		if err != nil {
			return nil, err
		}
		rp := kernels.RunParams{
			Size: cfg.Size, Reps: cfg.Reps,
			Workers: cfg.Workers, Schedule: cfg.Schedule,
		}
		res := KernelResult{
			Name:      name,
			Times:     map[kernels.VariantID]float64{},
			Checksums: map[kernels.VariantID]float64{},
		}
		for _, v := range variants {
			if !k.Info().HasVariant(v) {
				continue
			}
			// Fresh state per variant: some kernels accumulate into
			// their outputs, so checksums are only comparable when
			// every variant runs the same passes from SetUp.
			k.SetUp(rp)
			best := 0.0
			var cs float64
			ok := true
			for pass := 0; pass < 2; pass++ {
				start := time.Now()
				if err := k.Run(v, rp); err != nil {
					res.Skipped = append(res.Skipped, v)
					ok = false
					break
				}
				if el := time.Since(start).Seconds(); pass == 0 || el < best {
					best = el
				}
				cs = k.Checksum()
			}
			k.TearDown()
			if ok {
				res.Times[v] = best
				res.Checksums[v] = cs
			}
		}
		rep.Results = append(rep.Results, res)
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
