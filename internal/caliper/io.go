package caliper

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
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
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("caliper: %w", err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("caliper: corrupt profile %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("caliper: invalid profile %s: %w", path, err)
	}
	return p, nil
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
// decoding up to a bounded number of files concurrently. At most one
// decoded profile per worker is in flight, so campaign-scale directories
// ingest without materializing the whole profile set. Only files carrying
// the full FileExt suffix are profiles; other .json files a run directory
// accumulates (campaign manifests, Chrome traces) are ignored.
//
// Decode errors surface in sorted order: the error returned names the
// first broken file by that order, independent of worker timing. A
// non-nil error from fn stops the walk.
func WalkDir(dir string, fn func(path string, p *Profile) error) error {
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
func WalkDirLenient(dir string, fn func(path string, p *Profile) error) ([]FileError, error) {
	return walkDir(dir, fn, true)
}

func walkDir(dir string, fn func(path string, p *Profile) error, lenient bool) ([]FileError, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("caliper: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), FileExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var ferrs []FileError
	skip := func(path string, err error) error {
		if !lenient {
			return err
		}
		ferrs = append(ferrs, FileError{Path: path, Err: err})
		return nil
	}
	workers := decodeWorkers(len(names))
	if workers <= 1 {
		for _, n := range names {
			path := filepath.Join(dir, n)
			p, err := ReadFile(path)
			if err != nil {
				if err := skip(path, err); err != nil {
					return nil, err
				}
				continue
			}
			if err := fn(path, p); err != nil {
				return nil, err
			}
		}
		return ferrs, nil
	}

	type result struct {
		idx int
		p   *Profile
		err error
	}
	sem := make(chan struct{}, workers)
	results := make(chan result, workers)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i, n := range names {
			select {
			case sem <- struct{}{}:
			case <-stop:
				return
			}
			go func(i int, path string) {
				p, err := ReadFile(path)
				select {
				case results <- result{i, p, err}:
				case <-stop:
				}
				<-sem
			}(i, filepath.Join(dir, n))
		}
	}()

	pending := map[int]result{}
	for next := 0; next < len(names); {
		r, ok := pending[next]
		if !ok {
			rr := <-results
			pending[rr.idx] = rr
			continue
		}
		delete(pending, next)
		path := filepath.Join(dir, names[next])
		if r.err != nil {
			if err := skip(path, r.err); err != nil {
				return nil, err
			}
			next++
			continue
		}
		if err := fn(path, r.p); err != nil {
			return nil, err
		}
		next++
	}
	return ferrs, nil
}

// ReadDir reads every profile file under dir (by FileExt), sorted by file
// name for deterministic composition order, decoding files on WalkDir's
// bounded worker pool. See WalkDir for the file-selection and error
// contract.
func ReadDir(dir string) ([]*Profile, error) {
	var ps []*Profile
	err := WalkDir(dir, func(_ string, p *Profile) error {
		ps = append(ps, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ps, nil
}
