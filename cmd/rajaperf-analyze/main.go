// Command rajaperf-analyze composes Caliper profiles written by the
// rajaperf driver into a Thicket and reports on them — the Go analog of
// the paper's Thicket notebooks:
//
//	rajaperf-analyze -dir runs/                      # summary + stats
//	rajaperf-analyze -dir runs/ -metric time -top 15 # slowest kernels
//	rajaperf-analyze -dir runs/ -groupby machine     # per-machine tables
//	rajaperf-analyze -dir runs/ -speedup SPR-DDR     # speedups vs baseline
//	rajaperf-analyze -dir runs/ -export csv          # dump metric + metadata tables
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rajaperf/internal/campaign"
	"rajaperf/internal/raja"
	"rajaperf/internal/telemetry"
	"rajaperf/internal/thicket"
)

func main() {
	var (
		dir       = flag.String("dir", ".", "directory of .cali.json profiles")
		metric    = flag.String("metric", "time", "metric to aggregate")
		top       = flag.Int("top", 0, "show only the top-N nodes by mean value")
		groupby   = flag.String("groupby", "", "metadata key to group profiles by")
		speedup   = flag.String("speedup", "", "baseline machine for a speedup table")
		tree      = flag.Int("tree", -1, "render the call tree of the given profile index")
		export    = flag.String("export", "", "dump the composed tables: csv or json")
		exportDir = flag.String("export-dir", ".", "directory the -export files are written to")

		metricsAddr  = flag.String("metrics-addr", "", "serve the telemetry plane (/metrics, /debug/vars, /healthz, /debug/pprof) on this address")
		teleInterval = flag.Duration("telemetry-interval", 0, "flush registry deltas into -export-dir as telemetry profiles at this period (0 = off)")
		quiet        = flag.Bool("quiet", false, "log errors only")
		verbose      = flag.Bool("v", false, "log debug detail")
	)
	flag.Parse()

	telemetry.SetDefault(telemetry.NewLogger(os.Stderr, telemetry.ParseLevel(*quiet, *verbose)))
	raja.Default().Observe(telemetry.NewPoolMetrics(telemetry.Default()))
	_, teleStop, err := telemetry.Boot(telemetry.BootOptions{
		Addr:       *metricsAddr,
		FlushDir:   *exportDir,
		FlushEvery: *teleInterval,
		Meta:       map[string]any{"telemetry.source": "rajaperf-analyze", "telemetry.dir": *dir},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rajaperf-analyze:", err)
		os.Exit(1)
	}

	runErr := run(*dir, *metric, *top, *groupby, *speedup, *tree, *export, *exportDir)
	teleStop()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "rajaperf-analyze:", runErr)
		os.Exit(1)
	}
}

func run(dir, metric string, top int, groupby, speedupBase string, tree int, export, exportDir string) error {
	// Lenient ingestion: a torn or quarantine-worthy profile is reported
	// and skipped, so one bad file never blocks analysis of an otherwise
	// healthy campaign directory.
	tk, ferrs, err := thicket.FromDirLenient(dir)
	if err != nil {
		return err
	}
	for _, fe := range ferrs {
		telemetry.L().Warn("skipping unreadable profile", "err", fe)
	}
	if export != "" {
		return exportTables(tk, export, exportDir)
	}
	// Campaign-produced directories carry a manifest; summarize it so
	// incomplete or partially failed campaigns are visible at a glance.
	if man, err := campaign.LoadManifest(dir); err == nil && len(man.Entries) > 0 {
		done, failed := man.Counts()
		fmt.Printf("campaign manifest: %d specs recorded (%d done, %d failed)\n",
			len(man.Entries), done, failed)
	}
	// Distributed campaigns leave one WAL per fabric worker; summarize
	// each shard's share of the work and attempts so load skew and
	// retry-heavy workers are visible at a glance.
	if shards, err := campaign.ShardSummaries(dir); err == nil && len(shards) > 0 {
		fmt.Printf("fabric shards: %d workers journaled outcomes\n", len(shards))
		for _, s := range shards {
			line := fmt.Sprintf("  shard %d: %d specs, %d attempts (%d done, %d failed)",
				s.Shard, s.Records, s.Attempts, s.Done, s.Failed)
			if s.Torn > 0 {
				line += fmt.Sprintf(", %d torn lines", s.Torn)
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("composed %d profiles, %d rows, %d nodes\n",
		tk.NumProfiles(), tk.NumRows(), len(tk.Nodes()))
	fmt.Printf("machines: %v\n", tk.MetadataColumn("machine"))
	fmt.Printf("variants: %v\n", tk.MetadataColumn("variant"))

	if tree >= 0 {
		if tree >= tk.NumProfiles() {
			return fmt.Errorf("profile %d out of range (%d profiles)", tree, tk.NumProfiles())
		}
		fmt.Print(tk.Tree(thicket.ProfileID(tree), metric))
		return nil
	}

	if speedupBase != "" {
		return speedupReport(tk, metric, speedupBase)
	}
	if groupby != "" {
		groups := tk.GroupBy(groupby)
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("\n--- %s = %s ---\n", groupby, k)
			printStats(groups[k], metric, top)
		}
		return nil
	}
	printStats(tk, metric, top)
	return nil
}

// exportTables dumps the composed DataFrame and metadata table:
// format csv writes metrics.csv and metadata.csv, format json writes
// thicket.json holding both components.
func exportTables(tk *thicket.Thicket, format, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(f *os.File) error) error {
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
		if err := write("metrics.csv", func(f *os.File) error { return tk.WriteMetricsCSV(f) }); err != nil {
			return err
		}
		return write("metadata.csv", func(f *os.File) error { return tk.WriteMetadataCSV(f) })
	case "json":
		return write("thicket.json", func(f *os.File) error { return tk.WriteJSON(f) })
	default:
		return fmt.Errorf("unknown -export format %q (want csv or json)", format)
	}
}

func printStats(tk *thicket.Thicket, metric string, top int) {
	stats := tk.AggregateStats(metric)
	sort.Slice(stats, func(i, j int) bool { return stats[i].Mean > stats[j].Mean })
	if top > 0 && top < len(stats) {
		stats = stats[:top]
	}
	fmt.Printf("%-34s %5s %12s %12s %12s %12s\n",
		"node", "count", "mean", "median", "min", "max")
	for _, s := range stats {
		fmt.Printf("%-34s %5d %12.6g %12.6g %12.6g %12.6g\n",
			s.Node, s.Count, s.Mean, s.Median, s.Min, s.Max)
	}
}

func speedupReport(tk *thicket.Thicket, metric, base string) error {
	groups := tk.GroupBy("machine")
	baseTk, ok := groups[base]
	if !ok {
		return fmt.Errorf("no profiles for baseline machine %q", base)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		if k != base {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		sp := thicket.SpeedupTable(baseTk, groups[k], metric)
		nodes := make([]string, 0, len(sp))
		for n := range sp {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		fmt.Printf("\nspeedup of %s over %s (metric %s):\n", k, base, metric)
		for _, n := range nodes {
			fmt.Printf("  %-34s %8.2fx\n", n, sp[n])
		}
	}
	return nil
}
