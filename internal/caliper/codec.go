package caliper

// The .cali.json codec. A profile has a fixed schema and an analysis
// session decodes hundreds of them, so reading and writing work on bytes
// directly rather than through encoding/json's reflection. The codec
// keeps two contracts, both checked against encoding/json by the tests:
//
//   - appendProfile writes exactly the bytes json.MarshalIndent(p, "", " ")
//     writes, so the on-disk format is the one every earlier release wrote;
//   - Rows.decode accepts exactly the inputs json.Unmarshal accepts into a
//     Profile, and Rows.Profile then returns a Profile reflect.DeepEqual to
//     the one json.Unmarshal fills: case-insensitive field names, merged
//     duplicate objects, slices decoded in place, null ignored or zeroing
//     as encoding/json does, U+FFFD for invalid UTF-8 and unpaired
//     surrogates, and float64 numbers.
//
// The decoder writes no per-record map: records land in a Rows' flat
// arenas. It interns metric names and path segments in a table its Rows
// keeps across the files it is reused for, so every record, and every
// file a walk decodes into that Rows, carries the same string for "time";
// frame.Builder's name cache keys on string identity and hits for
// decoded profiles too.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// encoder appends the indented JSON form of a profile.
type encoder struct {
	b    []byte
	keys []string // scratch for sorting map keys
	err  error
}

// appendProfile appends p's file form to b.
func appendProfile(b []byte, p *Profile) ([]byte, error) {
	if b == nil {
		b = make([]byte, 0, sizeHint(p))
	}
	e := encoder{b: b}
	e.b = append(e.b, "{\n \"metadata\": "...)
	e.metadata(p.Metadata)
	e.b = append(e.b, ",\n \"records\": "...)
	switch {
	case p.Records == nil:
		e.b = append(e.b, "null"...)
	case len(p.Records) == 0:
		e.b = append(e.b, "[]"...)
	default:
		e.b = append(e.b, '[')
		for i := range p.Records {
			r := &p.Records[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, "\n  {\n   \"path\": "...)
			e.strings(r.Path, 3)
			e.b = append(e.b, ",\n   \"metrics\": "...)
			e.metrics(r.Metrics)
			e.b = append(e.b, "\n  }"...)
		}
		e.b = append(e.b, "\n ]"...)
	}
	e.b = append(e.b, "\n}"...)
	return e.b, e.err
}

// sizeHint slightly overestimates p's encoded size, so one allocation
// usually holds the whole file.
func sizeHint(p *Profile) int {
	n := 64 + 48*len(p.Metadata)
	for _, r := range p.Records {
		n += 48 + 40*len(r.Metrics)
		for _, s := range r.Path {
			n += 8 + len(s)
		}
	}
	return n
}

// newline starts an element line at the given nesting depth.
func (e *encoder) newline(depth int) {
	e.b = append(e.b, '\n')
	for ; depth > 0; depth-- {
		e.b = append(e.b, ' ')
	}
}

// sortedKeys returns m's keys in encoding/json's order, in scratch space
// reused by the next call.
func sortedKeys[V any](e *encoder, m map[string]V) []string {
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.keys = keys
	return keys
}

// metrics writes a record's metrics object. Records of one profile
// mostly share their metric names, so the previous record's sorted names
// are tried first; the map is sorted again only when its names differ.
func (e *encoder) metrics(m map[string]float64) {
	switch {
	case m == nil:
		e.b = append(e.b, "null"...)
		return
	case len(m) == 0:
		e.b = append(e.b, "{}"...)
		return
	}
	if len(e.keys) != len(m) || !e.metricsInOrder(m, e.keys) {
		e.metricsInOrder(m, sortedKeys(e, m))
	}
}

// metricsInOrder writes m's entries in the order of keys, or, when keys
// names something m lacks, writes nothing and reports false.
func (e *encoder) metricsInOrder(m map[string]float64, keys []string) bool {
	mark := len(e.b)
	e.b = append(e.b, '{')
	for i, k := range keys {
		v, ok := m[k]
		if !ok {
			e.b = e.b[:mark]
			return false
		}
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.newline(4)
		e.str(k)
		e.b = append(e.b, ": "...)
		e.float(v)
	}
	e.newline(3)
	e.b = append(e.b, '}')
	return true
}

// metadata writes the metadata object, whose entries sit at depth 2.
func (e *encoder) metadata(m map[string]any) {
	switch {
	case m == nil:
		e.b = append(e.b, "null"...)
		return
	case len(m) == 0:
		e.b = append(e.b, "{}"...)
		return
	}
	e.b = append(e.b, '{')
	for i, k := range sortedKeys(e, m) {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.newline(2)
		e.str(k)
		e.b = append(e.b, ": "...)
		e.value(m[k], 2)
	}
	e.newline(1)
	e.b = append(e.b, '}')
}

func (e *encoder) strings(ss []string, depth int) {
	switch {
	case ss == nil:
		e.b = append(e.b, "null"...)
		return
	case len(ss) == 0:
		e.b = append(e.b, "[]"...)
		return
	}
	e.b = append(e.b, '[')
	for i, s := range ss {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.newline(depth + 1)
		e.str(s)
	}
	e.newline(depth)
	e.b = append(e.b, ']')
}

// value writes one metadata value sitting at depth. Types the repo does
// not record itself (including the []any and map[string]any a decoded
// profile can hold) go through json.Marshal of that value alone,
// re-indented to where it sits, which is how MarshalIndent treats the
// whole document.
func (e *encoder) value(v any, depth int) {
	switch v := v.(type) {
	case nil:
		e.b = append(e.b, "null"...)
	case string:
		e.str(v)
	case float64:
		e.float(v)
	case int:
		e.b = strconv.AppendInt(e.b, int64(v), 10)
	case int64:
		e.b = strconv.AppendInt(e.b, v, 10)
	case bool:
		e.b = strconv.AppendBool(e.b, v)
	case []string:
		e.strings(v, depth)
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			e.fail(err)
			return
		}
		var buf bytes.Buffer
		if err := json.Indent(&buf, raw, strings.Repeat(" ", depth), " "); err != nil {
			e.fail(err)
			return
		}
		e.b = append(e.b, buf.Bytes()...)
	}
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// float formats f as encoding/json does: ES6 number-to-string, shortest
// round-trip digits, exponent form outside [1e-6, 1e21).
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.fail(fmt.Errorf("unsupported value: %v", f))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.b = b
}

const hexDigits = "0123456789abcdef"

// str writes s as a JSON string with encoding/json's escaping: HTML
// characters, control bytes, U+2028 and U+2029 escaped, invalid UTF-8
// replaced by U+FFFD.
func (e *encoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// decoder parses one profile file in a single pass over its bytes. The
// Rows that holds it keeps its intern table, its string scratch and its
// marks from file to file.
type decoder struct {
	data  []byte
	pos   int
	depth int
	buf   []byte           // scratch for strings with escapes and path keys
	ids   map[string]int32 // interned strings: names, path segments and keys
	strs  []string         // interned strings by id
	marks []mark           // per interned string
	stamp uint32           // last value next handed out
}

// mark records, for one interned string, the last metrics object that
// set it as a metric name and at which cell, and the last validation pass
// that met it as a path key. Stamps come from next, so a stale mark never
// matches and nothing is cleared between objects or files.
type mark struct {
	run, pass uint32
	at        int32
}

// next returns a stamp no mark carries yet.
func (d *decoder) next() uint32 {
	if d.stamp++; d.stamp == 0 {
		clear(d.marks)
		d.stamp = 1
	}
	return d.stamp
}

// decode parses data into r as json.Unmarshal parses it into a Profile.
// It does not validate the result.
func (r *Rows) decode(data []byte) error {
	r.Metadata, r.hasRecs, r.size, r.dirBytes = nil, false, 0, 0
	r.recs, r.recHW = r.recs[:0], 0
	r.segs, r.names, r.vals = r.segs[:0], r.names[:0], r.vals[:0]
	d := &r.d
	d.data, d.pos, d.depth = data, 0, 0
	if d.ids == nil {
		d.ids = make(map[string]int32, 64)
	}
	err := r.profile()
	if d.space(); err == nil && d.pos < len(d.data) {
		err = d.syntax("after top-level value")
	}
	d.data = nil
	return err
}

func (d *decoder) syntax(where string) error {
	if d.pos >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", d.data[d.pos], where, d.pos)
}

// wrongType reports a well-formed value of the wrong JSON type for what.
func (d *decoder) wrongType(what string) error {
	return fmt.Errorf("offset %d: %s has the wrong type", d.pos, what)
}

func (d *decoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the first byte of the next value, or 0 at end of input.
func (d *decoder) peek() byte {
	d.space()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// members walks the object at d.pos, calling member with each key once
// the reader sits on that key's value; member must consume the value.
// The key aliases the input or d.buf and is only valid during the call.
func (d *decoder) members(member func(key []byte) error) error {
	if err := d.enter(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.pos++
		if err := member(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// elements walks the array at d.pos, calling elem with each index once
// the reader sits on that element; elem must consume the value.
func (d *decoder) elements(elem func(i int) error) error {
	if err := d.enter(); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// enter consumes an opening bracket or brace.
func (d *decoder) enter() error {
	d.pos++
	if d.depth++; d.depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	return nil
}

// field reports which of names (lower-case ASCII letters) key selects:
// an exact match first, then encoding/json's case folding, under which
// two runes match when they share a simple case-folding orbit. -1 means
// an unknown field.
func field(key []byte, names ...string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if foldMatch(key, n) {
			return i
		}
	}
	return -1
}

func foldMatch(key []byte, name string) bool {
	j := 0
	for len(key) > 0 {
		r, size := utf8.DecodeRune(key)
		key = key[size:]
		if r >= utf8.RuneSelf {
			r = foldRune(r)
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		if j >= len(name) || r != rune(name[j]-('a'-'A')) {
			return false
		}
		j++
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's simple case-folding orbit:
// 'S' for U+017F, 'K' for U+212A.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

func (r *Rows) profile() error {
	d := &r.d
	switch d.peek() {
	case '{':
	case 'n':
		return d.literal("null")
	default:
		return d.wrongType("profile")
	}
	return d.members(func(key []byte) error {
		switch field(key, "metadata", "records") {
		case 0:
			return d.metadata(&r.Metadata)
		case 1:
			return r.records()
		}
		return d.skip()
	})
}

func (d *decoder) metadata(m *map[string]any) error {
	switch d.peek() {
	case '{':
	case 'n':
		*m = nil
		return d.literal("null")
	default:
		return d.wrongType("metadata")
	}
	if *m == nil {
		*m = make(map[string]any, 32)
	}
	return d.members(func(key []byte) error {
		k := string(key)
		v, err := d.any()
		(*m)[k] = v
		return err
	})
}

// records decodes an array into r.recs the way encoding/json fills a
// slice: elements are decoded in place over the records already there,
// an index past the length re-exposes what an earlier array wrote there
// (as reflect.Value.SetLen within capacity does), the slice is cut to
// the array's length, and an empty array yields a new, empty slice.
func (r *Rows) records() error {
	d := &r.d
	switch d.peek() {
	case '[':
	case 'n':
		r.recs, r.recHW, r.hasRecs = r.recs[:0], 0, false
		return d.literal("null")
	default:
		return d.wrongType("records")
	}
	n := 0
	err := d.elements(func(i int) error {
		switch {
		case i < len(r.recs):
		case i < r.recHW:
			r.recs = r.recs[:i+1]
		default:
			r.recs = append(r.recs, rowRec{})
			r.recHW = i + 1
		}
		n = i + 1
		return r.record(i)
	})
	r.recs, r.hasRecs = r.recs[:n], true
	if n == 0 {
		r.recHW = 0
	}
	return err
}

func (r *Rows) record(i int) error {
	d := &r.d
	switch d.peek() {
	case '{':
	case 'n':
		return d.literal("null")
	default:
		return d.wrongType("record")
	}
	return d.members(func(key []byte) error {
		switch field(key, "path", "metrics") {
		case 0:
			return r.path(&r.recs[i])
		case 1:
			return r.metrics(&r.recs[i])
		}
		return d.skip()
	})
}

// path decodes an array over rec's path as records decodes over r.recs;
// a null segment leaves the segment as it was. The path first moves to
// the end of the arena, unless it ends there already, so that the array
// can extend it in place.
func (r *Rows) path(rec *rowRec) error {
	d := &r.d
	switch d.peek() {
	case '[':
	case 'n':
		rec.hasPath, rec.segN, rec.segHW = false, 0, 0
		return d.literal("null")
	default:
		return d.wrongType("path")
	}
	if end := rec.segOff + rec.segHW; int(end) != len(r.segs) {
		off := len(r.segs)
		r.segs = append(r.segs, r.segs[rec.segOff:end]...)
		rec.segOff = int32(off)
	}
	n := 0
	err := d.elements(func(i int) error {
		if i == int(rec.segHW) {
			r.segs = append(r.segs, "")
			rec.segHW++
		}
		n = i + 1
		switch d.peek() {
		case '"':
			seg, err := d.str()
			r.segs[int(rec.segOff)+i], _ = d.intern(seg)
			return err
		case 'n':
			return d.literal("null") // null leaves a string as it was
		}
		return d.wrongType("path segment")
	})
	rec.hasPath, rec.segN = true, int32(n)
	if n == 0 {
		rec.segHW = 0
	}
	return err
}

// metrics merges a metrics object into rec's cells as encoding/json
// merges it into the record's map: a name already there takes the new
// value, null stores 0, and nil metrics become empty ones. The cells
// first move to the end of the arena, unless they end there already, so
// that new names can extend them.
func (r *Rows) metrics(rec *rowRec) error {
	d := &r.d
	switch d.peek() {
	case '{':
	case 'n':
		rec.hasMetrics, rec.cellN = false, 0
		return d.literal("null")
	default:
		return d.wrongType("metrics")
	}
	if end := rec.cellOff + rec.cellN; int(end) != len(r.names) {
		off := len(r.names)
		r.names = append(r.names, r.names[rec.cellOff:end]...)
		r.vals = append(r.vals, r.vals[rec.cellOff:end]...)
		rec.cellOff = int32(off)
	}
	run := d.next()
	for j := rec.cellOff; j < rec.cellOff+rec.cellN; j++ {
		m := &d.marks[d.ids[r.names[j]]]
		m.run, m.at = run, j
	}
	err := d.members(func(key []byte) error {
		name, id := d.intern(key)
		v := 0.0
		switch d.peek() {
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			var err error
			if v, err = d.number(); err != nil {
				return err
			}
		default:
			return d.wrongType("metric value")
		}
		if m := &d.marks[id]; m.run == run {
			r.vals[m.at] = v
		} else {
			m.run, m.at = run, int32(len(r.vals))
			r.names = append(r.names, name)
			r.vals = append(r.vals, v)
		}
		return nil
	})
	rec.hasMetrics, rec.cellN = true, int32(len(r.names))-rec.cellOff
	return err
}

// any decodes a value of any JSON type as encoding/json decodes into an
// interface{}: map[string]any, []any, string, float64, bool or nil.
func (d *decoder) any() (any, error) {
	switch c := d.peek(); c {
	case '{':
		m := map[string]any{}
		err := d.members(func(key []byte) error {
			k := string(key)
			v, err := d.any()
			m[k] = v
			return err
		})
		return m, err
	case '[':
		a := []any{}
		err := d.elements(func(int) error {
			v, err := d.any()
			a = append(a, v)
			return err
		})
		return a, err
	case '"':
		s, err := d.str()
		return string(s), err
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	case 'n':
		return nil, d.literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return d.number()
	}
	return nil, d.syntax("looking for beginning of value")
}

// skip consumes one value of any type without keeping it. Like
// encoding/json, it checks only the grammar: numbers in unknown fields
// are never converted.
func (d *decoder) skip() error {
	switch c := d.peek(); c {
	case '{':
		return d.members(func([]byte) error { return d.skip() })
	case '[':
		return d.elements(func(int) error { return d.skip() })
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		_, err := d.numberLiteral()
		return err
	}
	return d.syntax("looking for beginning of value")
}

func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos >= len(d.data) || d.data[d.pos] != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

// number reads a number literal and converts it as encoding/json does;
// a literal out of float64 range is an error.
func (d *decoder) number() (float64, error) {
	lit, err := d.numberLiteral()
	if err != nil {
		return 0, err
	}
	// The literal is only read during the call: no copy needed.
	f, err := strconv.ParseFloat(unsafe.String(&lit[0], len(lit)), 64)
	if err != nil {
		return 0, fmt.Errorf("offset %d: number %s is out of range", d.pos, lit)
	}
	return f, nil
}

// numberLiteral scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *decoder) numberLiteral() ([]byte, error) {
	start := d.pos
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case !d.digits():
		return nil, d.syntax("in numeric literal")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if !d.digits() {
			return nil, d.syntax("after decimal point in numeric literal")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if !d.digits() {
			return nil, d.syntax("in exponent of numeric literal")
		}
	}
	return d.data[start:d.pos], nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// intern returns the string for b, the same string for every equal b
// the decoder meets, and its id.
func (d *decoder) intern(b []byte) (string, int32) {
	if id, ok := d.ids[string(b)]; ok {
		return d.strs[id], id
	}
	s, id := string(b), int32(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	d.marks = append(d.marks, mark{})
	return s, id
}

// str reads the string literal at d.pos and returns its contents
// unquoted as encoding/json unquotes them. The result aliases the input
// or d.buf, so callers copy it before the next read.
func (d *decoder) str() ([]byte, error) {
	d.pos++
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c == '"' {
			d.pos++
			return d.data[start : d.pos-1], nil
		}
		if c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
			break
		}
		d.pos++
	}
	b := append(d.buf[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.buf = b
			return b, nil
		case c < 0x20:
			return nil, d.syntax("in string literal")
		case c == '\\':
			var err error
			if b, err = d.escape(b); err != nil {
				return nil, err
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			b = utf8.AppendRune(b, r)
			d.pos += size
		}
	}
	return nil, d.syntax("in string literal")
}

// escape resolves the escape sequence at d.pos onto b. An unpaired
// surrogate becomes U+FFFD, and a following \u escape that does not
// complete the pair is left for the next call.
func (d *decoder) escape(b []byte) ([]byte, error) {
	d.pos++
	if d.pos >= len(d.data) {
		return nil, d.syntax("in string escape code")
	}
	c := d.data[d.pos]
	d.pos++
	switch c {
	case '"', '\\', '/':
		return append(b, c), nil
	case 'b':
		return append(b, '\b'), nil
	case 'f':
		return append(b, '\f'), nil
	case 'n':
		return append(b, '\n'), nil
	case 'r':
		return append(b, '\r'), nil
	case 't':
		return append(b, '\t'), nil
	case 'u':
		r := hex4(d.data[d.pos:])
		if r < 0 {
			return nil, d.syntax("in \\u hexadecimal character escape")
		}
		d.pos += 4
		if utf16.IsSurrogate(r) {
			if d.pos+1 < len(d.data) && d.data[d.pos] == '\\' && d.data[d.pos+1] == 'u' {
				if r2 := hex4(d.data[d.pos+2:]); r2 >= 0 {
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						d.pos += 6
						return utf8.AppendRune(b, dec), nil
					}
				}
			}
			r = unicode.ReplacementChar
		}
		return utf8.AppendRune(b, r), nil
	}
	d.pos--
	return nil, d.syntax("in string escape code")
}

// hex4 parses four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(b[:4]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(v)
}
