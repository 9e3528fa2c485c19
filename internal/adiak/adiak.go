// Package adiak records per-run metadata, standing in for the LLNL Adiak
// library the paper uses to annotate Caliper profiles with the programming
// model, variant, tuning, and machine of each run.
package adiak

import (
	"os"
	"runtime"
	"time"
)

// Metadata is a set of named run attributes.
type Metadata map[string]any

// Timestamp returns the current instant as an absolute RFC 3339 UTC
// string with nanosecond precision — the format every collection
// timestamp in a profile uses, so runs recorded on different machines
// order correctly without reference to a local epoch.
func Timestamp() string {
	return time.Now().UTC().Format(time.RFC3339Nano)
}

// Collect returns the standard launch metadata Adiak gathers implicitly:
// user, launch date, executable, and host properties.
func Collect() Metadata {
	host, _ := os.Hostname()
	exe, _ := os.Executable()
	return Metadata{
		"launchdate": time.Now().UTC().Format(time.RFC3339),
		"executable": exe,
		"hostname":   host,
		"cluster":    host,
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"numcores":   runtime.GOMAXPROCS(0),
	}
}

// Executor describes the run's parallel-executor configuration — the
// loop schedule, worker count, pool lane count, block-size tuning, and
// the enabled measurement services — as run metadata, so Thicket can
// group profiles by how the work was scheduled, not just where it ran.
func Executor(schedule string, workers, lanes, block int, services string) Metadata {
	if services == "" {
		services = "none"
	}
	return Metadata{
		"executor.schedule": schedule,
		"executor.workers":  workers,
		"executor.lanes":    lanes,
		"executor.block":    block,
		"executor.services": services,
	}
}
