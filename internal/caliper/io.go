package caliper

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// FileExt is the extension of serialized profiles (the ".cali" analog).
const FileExt = ".cali.json"

// WriteFile serializes the profile to path, creating parent directories.
// The write is atomic (temp file + fsync + rename): a crash mid-write
// leaves either the previous contents or a stray *.tmp* file that
// campaign recovery sweeps, never a torn profile under the final name.
func (p *Profile) WriteFile(path string) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("caliper: refusing to write invalid profile: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("caliper: %w", err)
		}
	}
	data, err := appendProfile(nil, p)
	if err != nil {
		return fmt.Errorf("caliper: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("caliper: %w", err)
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("caliper: %w", err)
	}
	return nil
}

// FileError records one file a lenient walk skipped and why.
type FileError struct {
	Path string
	Err  error
}

func (e FileError) Error() string { return fmt.Sprintf("%s: %v", e.Path, e.Err) }

func (e FileError) Unwrap() error { return e.Err }

// ReadFile deserializes and validates a profile from path.
func ReadFile(path string) (*Profile, error) {
	r := getRows()
	defer putRows(r)
	if err := r.readFile(path); err != nil {
		return nil, err
	}
	return r.Profile(), nil
}

// decodeWorkers bounds the parallel profile decoders WalkDir runs. Capped
// so a campaign-scale directory doesn't hold hundreds of decoded
// profiles in flight at once.
func decodeWorkers(files int) int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w > files {
		w = files
	}
	return w
}

// WalkDir streams every profile file under dir (by FileExt) through fn in
// sorted file-name order — the deterministic composition order — while
// decoding up to a bounded number of files concurrently. Each file is
// decoded and validated into a Rows, which fn may read only during the
// call: the walk recycles it, with the file's read buffer, for a later
// file. fn calls Rows.Profile for a Profile to keep. At most two files
// per decoder are in flight, so campaign-scale directories ingest without
// materializing the whole profile set. Only files carrying the full
// FileExt suffix are profiles; other .json files a run directory
// accumulates (campaign manifests, Chrome traces) are ignored.
//
// Decode errors surface in sorted order: the error returned names the
// first broken file by that order, independent of worker timing. A
// non-nil error from fn stops the walk. No decoder outlives the call.
func WalkDir(dir string, fn func(path string, r *Rows) error) error {
	_, err := walkDir(dir, fn, false)
	return err
}

// WalkDirLenient walks like WalkDir but treats undecodable profiles as
// data to report rather than a reason to stop: fn still sees every good
// profile in sorted order, and the skipped files come back as FileErrors
// in that same order. A non-nil error from fn (or a directory-level
// failure) still aborts the walk. This is the ingestion mode for
// directories a crashed or fault-injected campaign may have littered
// with partial files.
func WalkDirLenient(dir string, fn func(path string, r *Rows) error) ([]FileError, error) {
	return walkDir(dir, fn, true)
}

// walkFile is one profile file of a walk, with its size from the listing.
type walkFile struct {
	name string
	size int64
}

func walkDir(dir string, fn func(path string, r *Rows) error, lenient bool) ([]FileError, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("caliper: %w", err)
	}
	var files []walkFile
	var dirBytes int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), FileExt) {
			continue
		}
		f := walkFile{name: e.Name()}
		if info, err := e.Info(); err == nil {
			f.size = info.Size()
		}
		files = append(files, f)
		dirBytes += f.size
	}
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
	var ferrs []FileError
	deliver := func(i int, r *Rows, err error) error {
		path := filepath.Join(dir, files[i].name)
		if err != nil {
			if !lenient {
				return err
			}
			ferrs = append(ferrs, FileError{Path: path, Err: err})
			return nil
		}
		r.size, r.dirBytes = files[i].size, dirBytes
		return fn(path, r)
	}
	workers := decodeWorkers(len(files))
	if workers <= 1 {
		r := getRows()
		defer putRows(r)
		for i := range files {
			if err := deliver(i, r, r.readFile(filepath.Join(dir, files[i].name))); err != nil {
				return nil, err
			}
		}
		return ferrs, nil
	}

	// Decoder w reads files w, w+workers, ... in order and hands each on
	// its own channel, so taking file i from channel i%workers delivers
	// in sorted order. Every return path stops the decoders and waits for
	// them: none may still write into a pooled Rows after the walk.
	type result struct {
		r   *Rows
		err error
	}
	chans := make([]chan result, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for w := range chans {
		chans[w] = make(chan result, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(files); i += workers {
				select {
				case <-stop:
					return
				default:
				}
				r := getRows()
				err := r.readFile(filepath.Join(dir, files[i].name))
				select {
				case chans[w] <- result{r, err}:
				case <-stop:
					putRows(r)
					return
				}
			}
		}()
	}
	for i := range files {
		res := <-chans[i%workers]
		err := deliver(i, res.r, res.err)
		putRows(res.r)
		if err != nil {
			return nil, err
		}
	}
	return ferrs, nil
}

// ReadDir reads every profile file under dir (by FileExt), sorted by file
// name for deterministic composition order, decoding files on WalkDir's
// bounded worker pool. See WalkDir for the file-selection and error
// contract.
func ReadDir(dir string) ([]*Profile, error) {
	var ps []*Profile
	err := WalkDir(dir, func(_ string, r *Rows) error {
		ps = append(ps, r.Profile())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ps, nil
}
