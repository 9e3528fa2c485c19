// Package frame is the columnar dataframe core under package thicket:
// dictionary-encoded node and path index columns, dense float64 metric
// columns with validity bitmaps, an interned metric-name schema, and
// per-node row postings built once at seal. A Frame is immutable once
// a Builder seals it (Finish or Snapshot); every operation over it
// (filter, group, aggregate) works on row selections — ascending []int32
// row indices into shared column storage — so slicing a campaign-scale
// profile set never copies or re-boxes rows.
package frame

// Dict interns strings to dense int32 ids in first-seen order. It is an
// open-addressing table tuned for the ingest hot loop, where every metric
// name of every row resolves through it: FNV-1a hashing plus linear
// probing beats the general-purpose map by enough to matter at
// campaign scale. Not safe for concurrent mutation; read-only use after
// build is safe.
type Dict struct {
	names []string
	tab   []int32 // slot -> id, or emptySlot
}

const emptySlot = int32(-1)

// NewDict returns an empty dictionary of 16 slots, which grows as it
// fills.
func NewDict() *Dict {
	d := &Dict{tab: make([]int32, 16)}
	for i := range d.tab {
		d.tab[i] = emptySlot
	}
	return d
}

// dictHash samples a few bytes plus the length instead of hashing the
// whole string: dictionary keys are short kernel, metric, and path names
// whose suffixes carry the variation, and the probe's full compare
// guarantees correctness on collision. Sampling keeps the per-entry cost
// flat no matter the key length.
func dictHash[T ~string | ~[]byte](s T) uint32 {
	n := len(s)
	h := uint32(n) * 0x9E3779B1
	if n > 0 {
		h ^= uint32(s[0])
		h = h*31 + uint32(s[n-1])
		h = h*31 + uint32(s[n>>1])
		if n > 1 {
			h = h*31 + uint32(s[n-2])
		}
	}
	h ^= h >> 15
	h *= 0x85ebca6b
	h ^= h >> 13
	return h
}

// slotFor probes for s, returning the slot holding its id or the empty
// slot where it would insert.
func (d *Dict) slotFor(s string) int {
	mask := uint32(len(d.tab) - 1)
	i := dictHash(s) & mask
	for {
		id := d.tab[i]
		if id == emptySlot || d.names[id] == s {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// Intern returns the id of s, assigning the next dense id on first use.
func (d *Dict) Intern(s string) int32 {
	slot := d.slotFor(s)
	if id := d.tab[slot]; id != emptySlot {
		return id
	}
	id := int32(len(d.names))
	d.names = append(d.names, s)
	d.tab[slot] = id
	if 2*len(d.names) >= len(d.tab) {
		d.grow()
	}
	return id
}

func (d *Dict) lookupBytes(b []byte) (int32, bool) {
	mask := uint32(len(d.tab) - 1)
	i := dictHash(b) & mask
	for {
		id := d.tab[i]
		if id == emptySlot {
			return 0, false
		}
		if d.names[id] == string(b) { // comparison does not allocate
			return id, true
		}
		i = (i + 1) & mask
	}
}

func (d *Dict) grow() {
	tab := make([]int32, 2*len(d.tab))
	for i := range tab {
		tab[i] = emptySlot
	}
	old := d.tab
	d.tab = tab
	mask := uint32(len(tab) - 1)
	for _, id := range old {
		if id == emptySlot {
			continue
		}
		i := dictHash(d.names[id]) & mask
		for tab[i] != emptySlot {
			i = (i + 1) & mask
		}
		tab[i] = id
	}
}

// Lookup returns the id of s without interning.
func (d *Dict) Lookup(s string) (int32, bool) {
	id := d.tab[d.slotFor(s)]
	return id, id != emptySlot
}

// Name returns the string with the given id.
func (d *Dict) Name(id int32) string { return d.names[id] }

// Names returns the interned strings in id order (shared; read-only).
func (d *Dict) Names() []string { return d.names }

// Len returns the number of interned strings.
func (d *Dict) Len() int { return len(d.names) }

// Bitmap is a growable validity bitmap over row indices.
type Bitmap []uint64

// Set marks row i valid, growing the bitmap as needed.
func (b *Bitmap) Set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << uint(i&63)
}

// Get reports whether row i is valid.
func (b Bitmap) Get(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// Column is one dense metric column: a value per row plus a validity
// bitmap marking which rows actually carry the metric.
type Column struct {
	Data  []float64
	valid Bitmap
}

// newColumn returns a column presized for n rows.
func newColumn(n int) *Column {
	if n <= 0 {
		return &Column{}
	}
	return &Column{
		Data:  make([]float64, 0, n),
		valid: make(Bitmap, 0, (n+63)/64),
	}
}

// set stores v at row, zero-padding any gap since the last set row.
func (c *Column) set(row int, v float64) {
	for len(c.Data) < row {
		c.Data = append(c.Data, 0)
	}
	if row == len(c.Data) {
		c.Data = append(c.Data, v)
	} else {
		c.Data[row] = v
	}
	c.valid.Set(row)
}

// pad extends the column with invalid zero cells up to n rows.
func (c *Column) pad(n int) {
	for len(c.Data) < n {
		c.Data = append(c.Data, 0)
	}
}

// padWords extends the validity bitmap to cover all n rows, so sealed
// columns always expose exactly (n+63)/64 words — the invariant the
// word-at-a-time query kernels scan without per-word bounds checks.
func (c *Column) padWords(n int) {
	words := (n + 63) / 64
	for len(c.valid) < words {
		c.valid = append(c.valid, 0)
	}
}

// validWords returns the validity words (shared; read-only). Sealed
// columns carry exactly ceil(rows/64) words.
func (c *Column) validWords() []uint64 { return c.valid }

// Value returns the cell at row, with ok reporting validity.
func (c *Column) Value(row int32) (float64, bool) {
	i := int(row)
	if i >= len(c.Data) || !c.valid.Get(i) {
		return 0, false
	}
	return c.Data[i], true
}

// AnyValid reports whether any of the given rows carries the metric;
// rows nil means any row at all.
func (c *Column) AnyValid(rows []int32) bool {
	if rows == nil {
		for _, w := range c.valid {
			if w != 0 {
				return true
			}
		}
		return false
	}
	for _, r := range rows {
		if c.valid.Get(int(r)) {
			return true
		}
	}
	return false
}
