package analysis

import (
	"fmt"
	"sort"
	"strings"

	"rajaperf/internal/machine"
	"rajaperf/internal/suite"
)

// DefaultTuningBlocks are the GPU block sizes swept by the tuning study,
// bracketing the suite's default of 256.
var DefaultTuningBlocks = []int{64, 128, 256, 512, 1024}

// TuningRow is one kernel's modeled time per block-size tuning on one GPU
// machine, with the winning tuning identified — the per-kernel "find
// optimal configurations by tuning execution parameters" study of
// Sec II-C.
type TuningRow struct {
	Kernel    string
	Times     map[int]float64 // block size -> modeled seconds per rep
	BestBlock int
	// Spread is worst/best time: how much the tuning choice matters.
	Spread float64
}

// TuningData is the sweep over one machine.
type TuningData struct {
	Machine *machine.Machine
	Blocks  []int
	Rows    []TuningRow
}

// TuningSweep models every GPU-capable kernel at each block size on m and
// reports the best tuning per kernel.
func (s *Session) TuningSweep(m *machine.Machine, blocks []int) (*TuningData, error) {
	if m.Kind != machine.GPU {
		return nil, fmt.Errorf("analysis: tuning sweep needs a GPU machine, got %s", m)
	}
	if len(blocks) == 0 {
		blocks = DefaultTuningBlocks
	}
	times := map[string]map[int]float64{}
	for _, block := range blocks {
		p, err := suite.Run(suite.Config{
			Machine:     m,
			Variant:     suite.DefaultVariant(m),
			GPUBlock:    block,
			SizePerNode: s.SizePerNode,
		})
		if err != nil {
			return nil, err
		}
		for _, r := range p.Records {
			t, ok := r.Metrics["time"]
			if !ok {
				continue
			}
			name := r.Node()
			if times[name] == nil {
				times[name] = map[int]float64{}
			}
			times[name][block] = t
		}
	}

	data := &TuningData{Machine: m, Blocks: blocks}
	names := make([]string, 0, len(times))
	for n := range times {
		if n == "suite" {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		row := TuningRow{Kernel: n, Times: times[n]}
		best, worst := 0.0, 0.0
		for _, block := range blocks {
			t := row.Times[block]
			if row.BestBlock == 0 || t < best {
				best, row.BestBlock = t, block
			}
			if t > worst {
				worst = t
			}
		}
		if best > 0 {
			row.Spread = worst / best
		}
		data.Rows = append(data.Rows, row)
	}
	return data, nil
}

// Render formats the tuning table.
func (d *TuningData) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "GPU block-size tuning sweep on %s (modeled seconds/rep)\n", d.Machine.Shorthand)
	fmt.Fprintf(&b, "%-34s", "Kernel")
	for _, block := range d.Blocks {
		fmt.Fprintf(&b, " %11s", fmt.Sprintf("block_%d", block))
	}
	fmt.Fprintf(&b, " %10s %7s\n", "best", "spread")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%-34s", r.Kernel)
		for _, block := range d.Blocks {
			fmt.Fprintf(&b, " %11.3e", r.Times[block])
		}
		fmt.Fprintf(&b, " %10s %6.2fx\n", fmt.Sprintf("block_%d", r.BestBlock), r.Spread)
	}
	return b.String()
}

// BestTuningHistogram counts how many kernels prefer each block size —
// the summary justifying the suite's block_256 default.
func (d *TuningData) BestTuningHistogram() map[int]int {
	out := map[int]int{}
	for _, r := range d.Rows {
		out[r.BestBlock]++
	}
	return out
}
