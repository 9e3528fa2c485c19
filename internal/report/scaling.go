package report

import (
	"fmt"
	"sort"
	"strings"

	"rajaperf/internal/caliper"
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
	"rajaperf/internal/suite"
)

// ScalingRow is one kernel's strong-scaling measurement: wall time per
// worker count, the parallel efficiency at the largest count, and the
// lane load-imbalance percentage per worker count (the suite's imbalance
// service).
type ScalingRow struct {
	Kernel     string
	Times      map[int]float64 // workers -> wall seconds over all reps
	Efficiency float64         // t(1) / (t(max) * max)
	Imbalance  map[int]float64 // workers -> (max-avg)/max busy-time %
}

// ScalingStudy measures strong scaling of the given kernels' RAJA_OpenMP
// variant on the host across worker counts — the "kernel scalability with
// the increase in computational resources" evaluation of Sec II-C. Each
// worker count is one host suite run with the imbalance service, and all
// of them dispatch through one persistent pool sized for the largest
// count, so the study measures scheduling, not goroutine churn. A size of
// zero means 100,000.
func ScalingStudy(names []string, workerCounts []int, size, reps int, sched raja.Schedule) ([]ScalingRow, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4}
	}
	sort.Ints(workerCounts)
	pool := raja.NewPool(workerCounts[len(workerCounts)-1])
	defer pool.Close()
	var rows []ScalingRow
	for i, w := range workerCounts {
		p, err := hostRun(suite.Config{Variant: kernels.RAJAOpenMP, Kernels: names,
			SizePerNode: size, Reps: reps, Workers: w, Schedule: sched, Pool: pool,
			Services: caliper.Services{caliper.ServiceImbalance: true}})
		if err != nil {
			return nil, err
		}
		if errs, ok := p.Metadata["errors"].([]string); ok {
			return nil, fmt.Errorf("report: RAJA_OpenMP with %d workers: %s", w, strings.Join(errs, "; "))
		}
		// Kernels without RAJA_OpenMP have no node and no row.
		row := 0
		for _, name := range names {
			rec := p.Find(name)
			if rec == nil {
				continue
			}
			if i == 0 {
				rows = append(rows, ScalingRow{Kernel: name,
					Times: map[int]float64{}, Imbalance: map[int]float64{}})
			}
			rows[row].Times[w] = rec.Metrics["wall_time"]
			rows[row].Imbalance[w] = rec.Metrics["imbalance_pct"]
			row++
		}
	}
	lo, hi := workerCounts[0], workerCounts[len(workerCounts)-1]
	for i := range rows {
		if t := rows[i].Times[hi]; t > 0 && hi > lo {
			rows[i].Efficiency = rows[i].Times[lo] * float64(lo) / (t * float64(hi))
		}
	}
	return rows, nil
}

// RenderScaling formats a scaling study as a table.
func RenderScaling(rows []ScalingRow, workerCounts []int) string {
	sort.Ints(workerCounts)
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s", "Kernel")
	for _, w := range workerCounts {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("w=%d", w))
	}
	fmt.Fprintf(&b, " %10s %10s\n", "efficiency", "imbalance")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s", r.Kernel)
		for _, w := range workerCounts {
			fmt.Fprintf(&b, " %9.3fms", r.Times[w]*1000)
		}
		maxW := workerCounts[len(workerCounts)-1]
		fmt.Fprintf(&b, " %9.0f%% %9.1f%%\n", r.Efficiency*100, r.Imbalance[maxW])
	}
	return b.String()
}
