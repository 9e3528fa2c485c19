package campaign

// Crash consistency of the record layer: write-ahead journal replay,
// torn-record tolerance, compaction, and directory recovery (temp-file
// sweep + profile quarantine).

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/resilience"
)

func specFixture(machine string) RunSpec {
	return RunSpec{Machine: machine, Variant: "RAJA_Seq", Size: 1000, Schedule: "default"}
}

func TestJournalReplayAndTornTail(t *testing.T) {
	dir := t.TempDir()
	man := NewManifest()
	if err := man.Write(dir); err != nil {
		t.Fatal(err)
	}

	// The manifest.torn fault tears the FIRST append mid-record — the
	// crash-mid-write simulation. The second append must land intact
	// regardless, because every record is '\n'-prefixed.
	inj, err := resilience.ParseFaults("manifest.torn:1")
	if err != nil {
		t.Fatal(err)
	}
	jl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := specFixture("SPR-DDR"), specFixture("SPR-HBM")
	if err := jl.Append(s1.ID(), ManifestEntry{Spec: s1, Status: StatusDone, File: "a" + caliper.FileExt}, inj); err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(s2.ID(), ManifestEntry{Spec: s2, Status: StatusFailed, Error: "boom", Attempts: 2}, inj); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	// LoadManifest replays the journal over the base checkpoint: the torn
	// record is lost (its spec will re-run), the intact one is visible.
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Entries[s1.ID()]; ok {
		t.Error("torn journal record must not replay")
	}
	e, ok := m.Entries[s2.ID()]
	if !ok {
		t.Fatal("intact journal record after a torn one did not replay")
	}
	if e.Status != StatusFailed || e.Attempts != 2 || e.Error != "boom" {
		t.Errorf("replayed entry = %+v", e)
	}

	// Recover accounts the same state and compacts: afterwards the base
	// manifest holds the entry and the journal is empty.
	m2, rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JournalApplied != 1 || rep.JournalTorn != 1 {
		t.Errorf("recovery report = %+v, want 1 applied 1 torn", rep)
	}
	if _, ok := m2.Entries[s2.ID()]; !ok {
		t.Error("recovered manifest lost the intact entry")
	}
	if fi, err := os.Stat(JournalPath(dir)); err != nil || fi.Size() != 0 {
		t.Errorf("journal after compaction: %v size %d, want empty", err, fi.Size())
	}
	base, err := loadBaseManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := base.Entries[s2.ID()]; !ok {
		t.Error("compaction did not fold the journal into the checkpoint")
	}
	// Idempotence: recovering a recovered directory repairs nothing.
	if _, rep2, err := Recover(dir); err != nil || !rep2.Empty() {
		t.Errorf("second recovery = %+v, %v; want empty report", rep2, err)
	}
}

func TestRecoverSweepsTempsAndQuarantines(t *testing.T) {
	dir := t.TempDir()
	if err := NewManifest().Write(dir); err != nil {
		t.Fatal(err)
	}
	// A valid profile, a torn one, and two interrupted atomic writes.
	c := caliper.NewRecorderWith(caliper.Config{})
	c.AddMetadata("machine", "SPR-DDR")
	c.Begin("Stream_ADD")
	c.End("Stream_ADD") //nolint:errcheck
	if err := c.Profile().WriteFile(filepath.Join(dir, "good"+caliper.FileExt)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn"+caliper.FileExt), []byte(`{"metadata`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tmp := range []string{ManifestName + ".tmp42", "x" + caliper.FileExt + ".tmp7"} {
		if err := os.WriteFile(filepath.Join(dir, tmp), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Garbage journal tail, as left by a kill mid-append.
	if err := os.WriteFile(JournalPath(dir), []byte("\n{\"id\":\"part"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TempRemoved) != 2 {
		t.Errorf("TempRemoved = %v, want both temp files", rep.TempRemoved)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "torn"+caliper.FileExt {
		t.Errorf("Quarantined = %v, want the torn profile", rep.Quarantined)
	}
	if rep.JournalTorn != 1 {
		t.Errorf("JournalTorn = %d, want 1", rep.JournalTorn)
	}
	if rep.Empty() || rep.String() == "" {
		t.Error("report must describe the repairs")
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, "torn"+caliper.FileExt)); err != nil {
		t.Errorf("quarantined file not preserved: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "good"+caliper.FileExt)); err != nil {
		t.Errorf("healthy profile disturbed: %v", err)
	}
	// The directory now reads cleanly with the strict reader.
	ps, err := caliper.ReadDir(dir)
	if err != nil || len(ps) != 1 {
		t.Errorf("ReadDir after recovery = %d profiles, %v", len(ps), err)
	}
	for _, name := range []string{ManifestName + ".tmp42", "x" + caliper.FileExt + ".tmp7"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("temp file %s survived the sweep", name)
		}
	}
}

func TestCleanCampaignCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	plan := Plan{Machines: []string{"SPR-DDR", "SPR-HBM"}, Sizes: []int{1000}}
	res, err := Run(context.Background(), plan, Options{OutDir: dir, Workers: 2})
	if err != nil || res.Done != 2 {
		t.Fatalf("campaign = %+v, %v", res, err)
	}
	// A cleanly finished campaign leaves an empty journal and a complete
	// checkpoint: nothing for the next resume to replay.
	if fi, err := os.Stat(JournalPath(dir)); err != nil || fi.Size() != 0 {
		t.Errorf("journal after clean campaign: %v size %d, want empty", err, fi.Size())
	}
	base, err := loadBaseManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := base.Counts(); done != 2 {
		t.Errorf("checkpoint holds %d done entries, want 2", done)
	}
	for id, e := range base.Entries {
		if e.Attempts != 1 {
			t.Errorf("%s attempts = %d, want 1", id, e.Attempts)
		}
	}
}

func TestFreshCampaignDropsStaleJournal(t *testing.T) {
	dir := t.TempDir()
	stale := specFixture("SPR-DDR")
	if err := NewManifest().Write(dir); err != nil {
		t.Fatal(err)
	}
	jl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(stale.ID(), ManifestEntry{Spec: stale, Status: StatusFailed, Error: "old"}, nil); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	// A fresh (non-resume) campaign over the same directory must not
	// inherit the previous campaign's journal.
	plan := Plan{Machines: []string{"SPR-HBM"}, Sizes: []int{1000}}
	if _, err := Run(context.Background(), plan, Options{OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Entries[stale.ID()]; ok {
		t.Error("stale journal entry survived a fresh campaign")
	}
	if strings.Contains(m.Entries[specFixture("SPR-HBM").ID()].Error, "old") {
		t.Error("entries cross-contaminated")
	}
}
