// Command rajaperf-experiments regenerates every table and figure of the
// paper's evaluation from the modeled machines:
//
//	rajaperf-experiments -exp all
//	rajaperf-experiments -exp fig9 -size 32000000
//	rajaperf-experiments -exp table2 -execute
//
// Experiments: table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6
// fig7 fig8 fig9 fig10 all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rajaperf/internal/analysis"
	"rajaperf/internal/machine"
	"rajaperf/internal/raja"
	"rajaperf/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (table1..table4, fig1..fig10, tuning, summary, all)")
		size    = flag.Int("size", 0, "problem size per node (0 = default 32000000, the paper's size)")
		execute = flag.Bool("execute", false, "run real kernel computations in addition to the models")
		thresh  = flag.Float64("threshold", 0, "Ward dendrogram cut distance (0 = 1.4)")
		svgdir  = flag.String("svgdir", "", "also write figure SVGs into this directory")
		jobs    = flag.Int("jobs", 1, "concurrent per-machine suite collections")
		dir     = flag.String("dir", "", "seed the profile cache from this campaign directory instead of re-running cached machines")
		export  = flag.String("export", "", "also dump the composed cross-machine thicket: csv or json")
		exdir   = flag.String("export-dir", ".", "directory the -export files are written to")

		metricsAddr  = flag.String("metrics-addr", "", "serve the telemetry plane (/metrics, /debug/vars, /healthz, /debug/pprof) on this address")
		teleInterval = flag.Duration("telemetry-interval", 0, "flush registry deltas into -export-dir as telemetry profiles at this period (0 = off)")
		quiet        = flag.Bool("quiet", false, "log errors only")
		verbose      = flag.Bool("v", false, "log debug detail")
	)
	flag.Parse()

	telemetry.SetDefault(telemetry.NewLogger(os.Stderr, telemetry.ParseLevel(*quiet, *verbose)))
	raja.Default().EnableTelemetry(nil)
	_, teleStop, err := telemetry.Boot(telemetry.BootOptions{
		Addr:       *metricsAddr,
		FlushDir:   *exdir,
		FlushEvery: *teleInterval,
		Meta:       map[string]any{"telemetry.source": "rajaperf-experiments"},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rajaperf-experiments:", err)
		os.Exit(1)
	}
	defer teleStop()

	s := analysis.NewSession(*size, *execute)
	s.Jobs = *jobs
	if *dir != "" {
		loaded, ferrs, err := s.LoadDir(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rajaperf-experiments:", err)
			os.Exit(1)
		}
		for _, fe := range ferrs {
			telemetry.L().Warn("skipping unreadable profile", "err", fe)
		}
		fmt.Printf("loaded %d cached profiles from %s\n", loaded, *dir)
	}
	if err := run(s, strings.ToLower(*exp), *thresh, *size); err != nil {
		fmt.Fprintln(os.Stderr, "rajaperf-experiments:", err)
		os.Exit(1)
	}
	if *svgdir != "" {
		paths, err := s.WriteFigures(*svgdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rajaperf-experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d figure SVGs to %s\n", len(paths), *svgdir)
	}
	if *export != "" {
		if err := exportThicket(s, *export, *exdir); err != nil {
			fmt.Fprintln(os.Stderr, "rajaperf-experiments:", err)
			os.Exit(1)
		}
	}
}

// exportThicket composes all four paper machines into one Thicket and
// dumps its DataFrame + metadata tables, so the modeled campaign can be
// picked up by external tooling (pandas, Thicket itself).
func exportThicket(s *analysis.Session, format, dir string) error {
	tk, err := s.Thicket(machine.Paper()...)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w io.Writer) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}
	switch format {
	case "csv":
		if err := write("metrics.csv", tk.WriteMetricsCSV); err != nil {
			return err
		}
		return write("metadata.csv", tk.WriteMetadataCSV)
	case "json":
		return write("thicket.json", tk.WriteJSON)
	default:
		return fmt.Errorf("unknown -export format %q (want csv or json)", format)
	}
}

func run(s *analysis.Session, exp string, threshold float64, size int) error {
	all := exp == "all"
	did := false
	section := func(title string) {
		fmt.Printf("\n================ %s ================\n", title)
	}

	if all || exp == "table1" {
		section("Table I: kernel inventory")
		fmt.Print(analysis.Table1())
		did = true
	}
	if all || exp == "table2" {
		section("Table II: machines and achieved rates")
		rows, err := s.Table2()
		if err != nil {
			return err
		}
		fmt.Print(analysis.RenderTable2(rows))
		did = true
	}
	if all || exp == "table3" {
		section("Table III: run parameters")
		fmt.Print(analysis.Table3(size))
		did = true
	}
	if all || exp == "table4" {
		section("Table IV: instruction roofline metrics")
		fmt.Print(analysis.Table4())
		did = true
	}
	if all || exp == "fig1" {
		section("Fig 1: analytic metrics per kernel")
		fmt.Print(analysis.RenderFig1(analysis.Fig1()))
		did = true
	}
	if all || exp == "fig2" {
		section("Fig 2: top-down hierarchy")
		fmt.Print(analysis.Fig2())
		did = true
	}
	if all || exp == "fig3" || exp == "fig4" {
		for _, m := range []*machine.Machine{machine.SPRDDR(), machine.SPRHBM()} {
			if !all && ((exp == "fig3") != (m.Shorthand == "SPR-DDR")) {
				continue
			}
			section(fmt.Sprintf("Fig 3/4: top-down metrics on %s", m.Shorthand))
			rows, err := s.Topdown(m)
			if err != nil {
				return err
			}
			fmt.Print(analysis.RenderTopdown(m, rows))
		}
		did = true
	}
	if all || exp == "fig5" {
		section("Fig 5: instruction roofline on P9-V100")
		data, err := s.Roofline(machine.P9V100())
		if err != nil {
			return err
		}
		fmt.Print(data.Render())
		did = true
	}
	if all || exp == "fig6" || exp == "fig7" || exp == "fig8" {
		section("Fig 6-8: Ward clustering, cluster stats, parallel coordinates")
		res, err := s.Cluster(threshold)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		did = true
	}
	if all || exp == "fig9" {
		section("Fig 9: memory bound and speedups vs SPR-DDR")
		data, err := s.Fig9()
		if err != nil {
			return err
		}
		fmt.Print(data.Render())
		did = true
	}
	if all || exp == "tuning" {
		section("Tuning: GPU block-size sweep on P9-V100")
		data, err := s.TuningSweep(machine.P9V100(), nil)
		if err != nil {
			return err
		}
		fmt.Print(data.Render())
		fmt.Printf("best-tuning histogram: %v\n", data.BestTuningHistogram())
		did = true
	}
	if all || exp == "fig10" {
		section("Fig 10: memory bandwidth vs FLOPS")
		panels, err := s.Fig10()
		if err != nil {
			return err
		}
		fmt.Print(analysis.RenderFig10(panels))
		did = true
	}
	if all || exp == "summary" {
		section("Summary: the paper's conclusions, evaluated")
		out, err := s.Summary()
		if err != nil {
			return err
		}
		fmt.Print(out)
		did = true
	}
	if !did {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
