package telemetry

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"rajaperf/internal/caliper"
)

// TestFlusherDeltas: each flush records only the activity since the
// previous one, idle intervals write nothing, and Stop performs the
// final flush.
func TestFlusherDeltas(t *testing.T) {
	dir := t.TempDir()
	reg := &Registry{}
	fl := NewFlusher(reg, dir, time.Second, map[string]any{"telemetry.source": "test"})

	// Idle: no activity since the baseline, nothing written.
	if path, err := fl.Flush(); err != nil || path != "" {
		t.Fatalf("idle flush = %q, %v; want no file", path, err)
	}

	reg.Counter("campaign.runs").Add(3)
	reg.Histogram("run.ns").Observe(5000)
	path1, err := fl.Flush()
	if err != nil || path1 == "" {
		t.Fatalf("first flush: %q, %v", path1, err)
	}
	p, err := caliper.ReadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("flushed profile invalid: %v", err)
	}
	if v, _ := p.Metadata[MetadataKey].(bool); !v {
		t.Errorf("metadata %s = %v, want true", MetadataKey, p.Metadata[MetadataKey])
	}
	if v, _ := p.Metadata["telemetry.source"].(string); v != "test" {
		t.Errorf("caller metadata lost: %v", p.Metadata["telemetry.source"])
	}
	if len(p.Records) != 1 || p.Records[0].Path[0] != TelemetryNode {
		t.Fatalf("records = %+v, want one %q node", p.Records, TelemetryNode)
	}
	m := p.Records[0].Metrics
	if m["telemetry.campaign.runs"] != 3 {
		t.Errorf("counter column = %v, want 3", m["telemetry.campaign.runs"])
	}
	if m["telemetry.run.ns.count"] != 1 || m["telemetry.run.ns.sum_ns"] != 5000 {
		t.Errorf("histogram columns = count %v sum %v", m["telemetry.run.ns.count"], m["telemetry.run.ns.sum_ns"])
	}

	// Second interval: only the delta appears.
	reg.Counter("campaign.runs").Add(2)
	path2, err := fl.Flush()
	if err != nil || path2 == "" {
		t.Fatalf("second flush: %q, %v", path2, err)
	}
	p2, err := caliper.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if v := p2.Records[0].Metrics["telemetry.campaign.runs"]; v != 2 {
		t.Errorf("second interval counter delta = %v, want 2", v)
	}
	if _, has := p2.Records[0].Metrics["telemetry.run.ns.count"]; has {
		// An untouched histogram contributes an empty delta; its columns
		// still render (zero) — both behaviors are fine, but the count
		// must be zero if present.
		if p2.Records[0].Metrics["telemetry.run.ns.count"] != 0 {
			t.Errorf("idle histogram delta nonzero: %v", p2.Records[0].Metrics["telemetry.run.ns.count"])
		}
	}

	// Stop: final flush captures the tail.
	reg.Counter("campaign.runs").Inc()
	if err := fl.Stop(); err != nil {
		t.Fatal(err)
	}
	wrote := fl.Written()
	if len(wrote) != 3 {
		t.Fatalf("Written() = %v, want 3 paths", wrote)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "telemetry_*"+caliper.FileExt))
	if len(files) != 3 {
		t.Fatalf("dir holds %d telemetry profiles, want 3", len(files))
	}
}

// TestFlusherPeriodic: Start flushes on its own tick; Stop is
// idempotent.
func TestFlusherPeriodic(t *testing.T) {
	dir := t.TempDir()
	reg := &Registry{}
	fl := NewFlusher(reg, dir, 10*time.Millisecond, nil)
	fl.Start()
	reg.Counter("ticks").Inc()
	deadline := time.Now().Add(5 * time.Second)
	for len(fl.Written()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(fl.Written()) == 0 {
		t.Fatal("periodic flusher wrote nothing")
	}
	if err := fl.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := fl.Stop(); err != nil {
		t.Fatal("second Stop failed:", err)
	}
}

// TestFlusherWriteError: a failed write surfaces the error and does not
// consume the ordinal or advance the baseline.
func TestFlusherWriteError(t *testing.T) {
	// A regular file where the output directory should be makes every
	// write fail until it is cleared.
	dir := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(dir, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := &Registry{}
	fl := NewFlusher(reg, dir, time.Second, nil)
	reg.Counter("c").Inc()
	if _, err := fl.Flush(); err == nil {
		t.Fatal("flush into a blocked directory succeeded")
	}
	// After the directory appears, the same delta flushes as 0001.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path, err := fl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "telemetry_0001"+caliper.FileExt {
		t.Errorf("recovered flush wrote %s, want ordinal 0001", filepath.Base(path))
	}
	p, _ := caliper.ReadFile(path)
	if p.Records[0].Metrics["telemetry.c"] != 1 {
		t.Errorf("delta lost across the failed flush: %v", p.Records[0].Metrics)
	}
}

// TestBoot: the CLI wiring boots a live server plus flusher against the
// default registry, and shutdown performs the final flush.
func TestBoot(t *testing.T) {
	dir := t.TempDir()
	bus := &Bus{}
	srv, stop, err := Boot(BootOptions{
		Addr:       "127.0.0.1:0",
		Bus:        bus,
		FlushDir:   dir,
		FlushEvery: time.Hour, // only the shutdown flush will fire
		Meta:       map[string]any{"telemetry.source": "boot-test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv == nil {
		t.Fatal("Boot with Addr returned no server")
	}
	if code, _ := get(t, "http://"+srv.Addr()+"/healthz"); code != 200 {
		t.Fatalf("booted server unhealthy: %d", code)
	}
	// Default-registry activity lands in the shutdown flush.
	Default().Counter("boot.test.events").Inc()
	stop()
	files, _ := filepath.Glob(filepath.Join(dir, "telemetry_*"+caliper.FileExt))
	if len(files) != 1 {
		t.Fatalf("shutdown flush wrote %d profiles, want 1", len(files))
	}
	p, err := caliper.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Records[0].Metrics["telemetry.boot.test.events"] < 1 {
		t.Errorf("boot counter missing from shutdown flush")
	}
}
