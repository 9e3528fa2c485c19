package frame

import (
	"reflect"
	"testing"
)

func TestDictInternLookup(t *testing.T) {
	d := NewDict()
	names := []string{"time", "metric_00", "metric_01", "metric_10", "metric_11", "", "a"}
	for i, n := range names {
		if id := d.Intern(n); id != int32(i) {
			t.Fatalf("Intern(%q) = %d, want %d", n, id, i)
		}
	}
	for i, n := range names {
		if id := d.Intern(n); id != int32(i) {
			t.Fatalf("re-Intern(%q) = %d, want %d", n, id, i)
		}
		id, ok := d.Lookup(n)
		if !ok || id != int32(i) {
			t.Fatalf("Lookup(%q) = %d, %v", n, id, ok)
		}
		if got, ok := d.lookupBytes([]byte(n)); !ok || got != int32(i) {
			t.Fatalf("lookupBytes(%q) = %d, %v", n, got, ok)
		}
		if d.Name(int32(i)) != n {
			t.Fatalf("Name(%d) = %q", i, d.Name(int32(i)))
		}
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Fatal("Lookup(absent) = ok")
	}
	if !reflect.DeepEqual(d.Names(), names) {
		t.Fatalf("Names() = %v", d.Names())
	}
}

func TestDictGrowKeepsIDs(t *testing.T) {
	d := NewDict()
	var names []string
	for i := 0; i < 500; i++ {
		names = append(names, string(rune('A'+i%26))+string(rune('a'+i/26)))
	}
	for _, n := range names {
		d.Intern(n)
	}
	for i, n := range names {
		if id, ok := d.Lookup(n); !ok || id != int32(i) {
			t.Fatalf("after grow: Lookup(%q) = %d, %v, want %d", n, id, ok, i)
		}
	}
}

func TestBitmapAndColumn(t *testing.T) {
	var c Column
	c.set(0, 1.5)
	c.set(3, 2.5) // rows 1,2 gap-padded invalid
	c.pad(6)
	for i, want := range []struct {
		v  float64
		ok bool
	}{{1.5, true}, {0, false}, {0, false}, {2.5, true}, {0, false}, {0, false}} {
		v, ok := c.Value(int32(i))
		if v != want.v || ok != want.ok {
			t.Fatalf("Value(%d) = %v, %v, want %v, %v", i, v, ok, want.v, want.ok)
		}
	}
	if _, ok := c.Value(99); ok {
		t.Fatal("Value(99) past end is valid")
	}
	if !c.AnyValid(nil) {
		t.Fatal("AnyValid(nil) = false")
	}
	if c.AnyValid([]int32{1, 2, 4}) {
		t.Fatal("AnyValid over invalid rows = true")
	}
	if !c.AnyValid([]int32{2, 3}) {
		t.Fatal("AnyValid including row 3 = false")
	}
}

// firstRow returns the first row at (node, prof), walking node's postings.
func firstRow(f *Frame, node, prof int32) (int32, bool) {
	for _, r := range f.NodeRows(node) {
		if f.ProfIDs()[r] == prof {
			return r, true
		}
	}
	return 0, false
}

// buildTestFrame: 2 profiles; p0 has kernels A,B (A duplicated), p1 has B,C.
func buildTestFrame(t *testing.T) *Frame {
	t.Helper()
	b := NewBuilder()
	b.Reserve(5)
	p0 := b.StartProfile(map[string]any{"machine": "m0"})
	b.AddRow([]string{"suite", "A"}, map[string]float64{"time": 1, "flops": 10})
	b.AddRow([]string{"suite", "A"}, map[string]float64{"time": 9}) // dup (node, profile)
	b.AddRow([]string{"suite", "B"}, map[string]float64{"time": 2})
	p1 := b.StartProfile(map[string]any{"machine": "m1"})
	b.AddRow([]string{"suite", "B"}, map[string]float64{"time": 3})
	b.AddRow([]string{"suite", "C"}, map[string]float64{"flops": 40})
	if p0 != 0 || p1 != 1 {
		t.Fatalf("profile ids = %d, %d", p0, p1)
	}
	return b.Finish()
}

func TestBuilderFrameInvariants(t *testing.T) {
	f := buildTestFrame(t)
	if f.NumRows() != 5 || f.NumProfiles() != 2 {
		t.Fatalf("rows = %d, profiles = %d", f.NumRows(), f.NumProfiles())
	}
	// The first (A, p0) row is row 0, ahead of its duplicate.
	aid, _ := f.NodeDict().Lookup("A")
	r, ok := firstRow(f, aid, 0)
	if !ok || r != 0 {
		t.Fatalf("firstRow(A, 0) = %d, %v", r, ok)
	}
	if v, ok := f.Column("time").Value(r); !ok || v != 1 {
		t.Fatalf("time at first (A,0) row = %v, %v", v, ok)
	}
	// Postings carry both A rows in row order.
	if got := f.NodeRows(aid); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("NodeRows(A) = %v", got)
	}
	// Profile ranges are contiguous.
	if lo, hi := f.ProfileRange(0); lo != 0 || hi != 3 {
		t.Fatalf("ProfileRange(0) = [%d, %d)", lo, hi)
	}
	if lo, hi := f.ProfileRange(1); lo != 3 || hi != 5 {
		t.Fatalf("ProfileRange(1) = [%d, %d)", lo, hi)
	}
	// Missing cells are invalid, not zero.
	bid, _ := f.NodeDict().Lookup("B")
	rb, _ := firstRow(f, bid, 1)
	if _, ok := f.Column("flops").Value(rb); ok {
		t.Fatal("flops at (B,1) should be absent")
	}
	if f.Column("nope") != nil {
		t.Fatal("unknown metric column != nil")
	}
	if f.MetaString(0, "machine") != "m0" || f.MetaString(0, "absent") != MissingKey {
		t.Fatalf("MetaString = %q, %q", f.MetaString(0, "machine"), f.MetaString(0, "absent"))
	}
}
