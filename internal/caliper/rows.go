package caliper

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
)

// Rows is one profile file decoded into a flat form without per-record
// maps: the metadata map plus, for each record, its path and a run of
// (name, value) cells, all records sharing one path arena and one cell
// arena. Each name appears at most once in a record's run, holding the
// value encoding/json would leave in the record's metrics map. Metric
// names and path segments are interned strings, shared by every record
// that names them.
//
// A Rows that WalkDir hands to its callback is valid only during that
// call: the walk then decodes the next file into it. Its metadata map,
// its strings and the Profile it builds stay valid after the call.
type Rows struct {
	// Metadata is the profile's metadata, as encoding/json decodes it.
	// A reused Rows decodes each file into a fresh map, so a caller may
	// keep this one.
	Metadata map[string]any

	recs    []rowRec
	recHW   int  // records written since the slice was last replaced
	hasRecs bool // "records" decoded to a non-nil slice
	segs    []string
	names   []string
	vals    []float64

	file           []byte // the file's bytes, reused for the next file
	size, dirBytes int64  // this file's and the whole walk's listed bytes

	d decoder
}

// rowRec is one record of a Rows: its path is segs[segOff:segOff+segN]
// and its cells are names and vals at [cellOff, cellOff+cellN). The zero
// value is a record with a nil path and nil metrics.
type rowRec struct {
	segOff, segN   int32
	segHW          int32 // segments written since the path was last replaced
	cellOff, cellN int32
	hasPath        bool
	hasMetrics     bool
}

// Len returns the number of records.
func (r *Rows) Len() int { return len(r.recs) }

// Record returns record i's path and its cells as parallel name and
// value slices, all shared with r and valid as long as r is.
func (r *Rows) Record(i int) (path, names []string, vals []float64) {
	rec := &r.recs[i]
	p, c := rec.segOff, rec.cellOff
	return r.segs[p : p+rec.segN : p+rec.segN], r.names[c : c+rec.cellN], r.vals[c : c+rec.cellN]
}

// DirRows estimates the rows of the directory a walk read r from: its
// record count scaled by the directory's profile bytes over its own. For
// a directory of like-sized profiles that is the total, and a first file
// much larger than the rest does not multiply its count by the file
// count. Outside a walk it is Len.
func (r *Rows) DirRows() int {
	if r.size <= 0 || r.dirBytes <= r.size {
		return r.Len()
	}
	return int(float64(r.Len()) * float64(r.dirBytes) / float64(r.size))
}

// Profile builds the Profile r decodes to, which shares nothing with r
// but the metadata map: the profile takes that over.
func (r *Rows) Profile() *Profile {
	p := &Profile{Metadata: r.Metadata}
	if !r.hasRecs {
		return p
	}
	p.Records = make([]Record, len(r.recs))
	total := 0
	for i := range r.recs {
		total += int(r.recs[i].segN)
	}
	segs := make([]string, total)
	for i := range r.recs {
		rec := &r.recs[i]
		path, names, vals := r.Record(i)
		if rec.hasPath {
			n := copy(segs, path)
			p.Records[i].Path = segs[:n:n]
			segs = segs[n:]
		}
		if rec.hasMetrics {
			m := make(map[string]float64, len(names))
			for j, name := range names {
				m[name] = vals[j]
			}
			p.Records[i].Metrics = m
		}
	}
	return p
}

// validate applies Profile.Validate's rules to r. A path key is interned
// like a name, and a record's path is a duplicate when its key's mark
// carries this pass.
func (r *Rows) validate() error {
	d := &r.d
	pass := d.next()
	for i := range r.recs {
		path, names, vals := r.Record(i)
		d.buf = appendPathKey(d.buf[:0], path)
		key, id := d.intern(d.buf)
		m := &d.marks[id]
		if err := recordError(i, path, key, m.pass == pass); err != nil {
			return err
		}
		m.pass = pass
		for j, name := range names {
			if err := metricError(key, name, vals[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

func appendPathKey(b []byte, path []string) []byte {
	for i, s := range path {
		if i > 0 {
			b = append(b, PathSep...)
		}
		b = append(b, s...)
	}
	return b
}

// readFile reads, decodes and validates the profile at path, reusing r's
// buffers. Its errors are ReadFile's.
func (r *Rows) readFile(path string) error {
	data, err := readInto(r.file, path)
	r.file = data
	if err != nil {
		return fmt.Errorf("caliper: %w", err)
	}
	if err := r.decode(data); err != nil {
		return fmt.Errorf("caliper: corrupt profile %s: %w", path, err)
	}
	if err := r.validate(); err != nil {
		return fmt.Errorf("caliper: invalid profile %s: %w", path, err)
	}
	return nil
}

// readInto reads the file at path into buf's backing array, growing it
// as os.ReadFile grows its own.
func readInto(buf []byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	size := 0
	if info, err := f.Stat(); err == nil && int64(int(info.Size())) == info.Size() {
		size = int(info.Size())
	}
	// One byte past the size lets the read that fills it also see EOF.
	buf = slices.Grow(buf[:0], max(size+1, 512))
	for {
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
	}
}

// rowsPool recycles Rows, with their read buffers, arenas and intern
// tables, across the files of a walk and across ReadFile calls.
var rowsPool = sync.Pool{New: func() any { return new(Rows) }}

// maxPooledBytes bounds the Rows that go back to the pool, about fifteen
// times a full-suite profile's 70 KB: one outsized file must not pin its
// buffers for the rest of the process.
const maxPooledBytes = 1 << 20

func getRows() *Rows { return rowsPool.Get().(*Rows) }

func putRows(r *Rows) {
	bytes := cap(r.file) + 16*cap(r.segs) + 24*cap(r.names) + 24*cap(r.recs) + 64*len(r.d.strs)
	if bytes > maxPooledBytes {
		return
	}
	r.Metadata = nil
	rowsPool.Put(r)
}
