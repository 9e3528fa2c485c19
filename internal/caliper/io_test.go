package caliper

// Campaign directories mix profiles with other JSON artifacts (the
// campaign manifest, Chrome traces) and can hold a torn profile after an
// interrupted run. ReadDir must read exactly the profiles and name the
// broken file when one fails.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func writeValidProfile(t *testing.T, path string) {
	t.Helper()
	c := NewRecorderWith(Config{})
	c.AddMetadata("machine", "SPR-DDR")
	c.Region("Stream_ADD", func() {})
	if err := c.Profile().WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestReadDirNamesTheCorruptFile(t *testing.T) {
	dir := t.TempDir()
	writeValidProfile(t, filepath.Join(dir, "a"+FileExt))
	bad := filepath.Join(dir, "b"+FileExt)
	if err := os.WriteFile(bad, []byte(`{"metadata": {}, "records": [{`), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := ReadDir(dir)
	if err == nil {
		t.Fatal("ReadDir accepted a directory with a torn profile")
	}
	if !strings.Contains(err.Error(), "b"+FileExt) {
		t.Errorf("error %q does not name the corrupt file", err)
	}
}

func TestReadDirRejectsStructurallyInvalidProfile(t *testing.T) {
	dir := t.TempDir()
	// Valid JSON, invalid profile: duplicate record paths.
	invalid := `{"metadata":{},"records":[` +
		`{"path":["k"],"metrics":{}},{"path":["k"],"metrics":{}}]}`
	path := filepath.Join(dir, "dup"+FileExt)
	if err := os.WriteFile(path, []byte(invalid), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "invalid profile") {
		t.Errorf("ReadFile = %v, want an invalid-profile error", err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Error("ReadDir must propagate profile validation errors")
	}
}

func TestReadDirIgnoresNonProfileJSON(t *testing.T) {
	dir := t.TempDir()
	writeValidProfile(t, filepath.Join(dir, "run0"+FileExt))
	writeValidProfile(t, filepath.Join(dir, "run1"+FileExt))
	// Sidecar files a campaign directory accumulates: none of these carry
	// the full FileExt, so none may be parsed as a profile.
	for _, name := range []string{"campaign_manifest.json", "trace.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a profile"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"+FileExt), 0o755); err != nil {
		t.Fatal(err)
	}

	ps, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Errorf("ReadDir = %d profiles, want 2 (sidecar files must be ignored)", len(ps))
	}
}

func TestWalkDirDeterministicOrderAndErrorPosition(t *testing.T) {
	dir := t.TempDir()
	// Enough files to engage the parallel decoders when GOMAXPROCS > 1;
	// on a single-CPU box the serial fallback must behave identically.
	var want []string
	for i := 0; i < 23; i++ {
		name := fmt.Sprintf("run%02d%s", i, FileExt)
		c := NewRecorderWith(Config{})
		c.AddMetadata("seq", i)
		c.Region("K", func() {})
		if err := c.Profile().WriteFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}

	var got []string
	var seqs []int
	err := WalkDir(dir, func(path string, r *Rows) error {
		got = append(got, filepath.Base(path))
		seqs = append(seqs, int(r.Metadata["seq"].(float64))) // ints round-trip as float64
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("WalkDir order = %v, want sorted %v", got, want)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("profile %d carries seq %d: path and payload disagree", i, s)
		}
	}

	// A decode error surfaces at its sorted position: files after it must
	// not reach fn, files before it must all have been delivered.
	bad := filepath.Join(dir, "run10"+FileExt)
	if err := os.WriteFile(bad, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	err = WalkDir(dir, func(path string, r *Rows) error {
		got = append(got, filepath.Base(path))
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "run10"+FileExt) {
		t.Fatalf("WalkDir error = %v, want it to name run10", err)
	}
	if !slices.Equal(got, want[:10]) {
		t.Fatalf("delivered before error = %v, want %v", got, want[:10])
	}
}

func TestWalkDirStopsOnCallbackError(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 8; i++ {
		writeValidProfile(t, filepath.Join(dir, fmt.Sprintf("p%d%s", i, FileExt)))
	}
	calls := 0
	sentinel := errors.New("stop here")
	err := WalkDir(dir, func(path string, r *Rows) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("WalkDir = %v, want the callback error", err)
	}
	if calls != 3 {
		t.Fatalf("callback ran %d times after erroring on the 3rd", calls)
	}
}

// writeFullProfile writes a profile of a full suite run's size: 76
// kernel records of 13 metrics each, about 45 KB.
func writeFullProfile(t *testing.T, path string) {
	t.Helper()
	c := NewRecorderWith(Config{})
	c.AddMetadata("machine", "SPR-DDR")
	for k := 0; k < 76; k++ {
		kernel := []string{"suite", fmt.Sprintf("Kernel_%02d", k)}
		for m := 0; m < 13; m++ {
			c.SetMetricAt(kernel, fmt.Sprintf("metric_%02d", m), float64(k*m)*1e-3)
		}
	}
	if err := c.Profile().WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

// goroutinesRunningCode counts goroutines as runtime.NumGoroutine does,
// less those whose work is over but whose exit the scheduler has not run
// yet: one returned from its function, whose stack holds nothing but
// runtime.goexit1, and one still inside the WaitGroup.Done that released
// its waiter.
func goroutinesRunningCode() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if !strings.Contains(g, "\nruntime.goexit1(") && !strings.Contains(g, "\nsync.(*WaitGroup).Done(") {
			n++
		}
	}
	return n
}

// TestWalkDirWaitsForDecoders: a walk stopped early, by a torn file or
// by its callback, returns only after every decoder it started has
// exited, since a decoder still running would write into pooled buffers.
func TestWalkDirWaitsForDecoders(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one decoder: the walk starts no goroutines")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "run00"+FileExt), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 16; i++ {
		writeFullProfile(t, filepath.Join(dir, fmt.Sprintf("run%02d%s", i, FileExt)))
	}
	sentinel := errors.New("stop here")
	walks := []struct {
		name string
		walk func() error
	}{
		{"torn file", func() error {
			return WalkDir(dir, func(string, *Rows) error { return nil })
		}},
		{"callback error", func() error {
			_, err := WalkDirLenient(dir, func(string, *Rows) error { return sentinel })
			return err
		}},
	}
	for _, w := range walks {
		for i := 0; i < 20; i++ {
			before := runtime.NumGoroutine()
			if err := w.walk(); err == nil {
				t.Fatalf("%s: walk succeeded", w.name)
			}
			if after := runtime.NumGoroutine(); after > before && goroutinesRunningCode() > before {
				t.Fatalf("%s: %d goroutines before the walk, %d right after it returned", w.name, before, after)
			}
		}
	}
}

func TestWalkDirLenientSkipsBrokenFiles(t *testing.T) {
	dir := t.TempDir()
	var want []string
	for i := 0; i < 14; i++ {
		name := fmt.Sprintf("run%02d%s", i, FileExt)
		writeValidProfile(t, filepath.Join(dir, name))
		want = append(want, name)
	}
	// Tear two files at different sorted positions: one torn JSON, one
	// valid JSON failing structural validation.
	if err := os.WriteFile(filepath.Join(dir, "run03"+FileExt), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	invalid := `{"metadata":{},"records":[{"path":["k"],"metrics":{}},{"path":["k"],"metrics":{}}]}`
	if err := os.WriteFile(filepath.Join(dir, "run09"+FileExt), []byte(invalid), 0o644); err != nil {
		t.Fatal(err)
	}

	var got []string
	ferrs, err := WalkDirLenient(dir, func(path string, r *Rows) error {
		got = append(got, filepath.Base(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ferrs) != 2 {
		t.Fatalf("FileErrors = %v, want exactly 2", ferrs)
	}
	// File errors come back in sorted order and name the broken files.
	if !strings.Contains(ferrs[0].Path, "run03") || !strings.Contains(ferrs[1].Path, "run09") {
		t.Errorf("FileErrors out of order or misnamed: %v", ferrs)
	}
	wantGood := slices.DeleteFunc(slices.Clone(want), func(n string) bool {
		return strings.Contains(n, "run03") || strings.Contains(n, "run09")
	})
	if !slices.Equal(got, wantGood) {
		t.Fatalf("lenient walk delivered %v, want %v", got, wantGood)
	}

	// Strict walk over the same directory still fails on the first broken
	// file by sorted order.
	if err := WalkDir(dir, func(string, *Rows) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "run03"+FileExt) {
		t.Errorf("strict WalkDir = %v, want error naming run03", err)
	}
}

func TestWalkDirLenientCallbackErrorStillAborts(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 6; i++ {
		writeValidProfile(t, filepath.Join(dir, fmt.Sprintf("p%d%s", i, FileExt)))
	}
	sentinel := errors.New("stop here")
	calls := 0
	_, err := WalkDirLenient(dir, func(string, *Rows) error {
		calls++
		if calls == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("lenient walk = %v, want the callback error", err)
	}
	if calls != 2 {
		t.Fatalf("callback ran %d times after erroring on the 2nd", calls)
	}
}

func TestWriteFileAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run"+FileExt)
	writeValidProfile(t, path)
	// Overwrite in place: the rename must replace the old contents whole.
	c := NewRecorderWith(Config{})
	c.AddMetadata("machine", "SPR-HBM")
	c.Region("Stream_DOT", func() {})
	if err := c.Profile().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	p, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Metadata["machine"] != "SPR-HBM" {
		t.Errorf("machine = %v after overwrite, want SPR-HBM", p.Metadata["machine"])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("stray temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the profile", len(entries))
	}
}
