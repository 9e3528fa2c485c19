package thicket_test

// Thicket composition over campaign-produced directories: the record
// layer streams one profile per spec plus a manifest into a directory,
// and FromDir must ingest exactly the profiles, in deterministic
// (sorted file name) order, keeping each run's metadata separate even
// though every profile carries the same keys.

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/thicket"
)

// runCampaign collects a small model-only campaign into dir and returns
// its result.
func runCampaign(t *testing.T, dir string, machines []string) *campaign.Result {
	t.Helper()
	res, err := campaign.Run(context.Background(), campaign.Plan{
		Machines: machines,
		Variants: []string{"RAJA_Seq"},
		Sizes:    []int{100_000},
	}, campaign.Options{OutDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Done; n != len(machines) {
		t.Fatalf("campaign done = %d, want %d", n, len(machines))
	}
	return res
}

func TestFromDirOverCampaignOutput(t *testing.T) {
	dir := t.TempDir()
	res := runCampaign(t, dir, []string{"SPR-DDR", "SPR-HBM", "P9-V100"})

	tk, err := thicket.FromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the campaign's profiles: the manifest sitting in the same
	// directory must not become a fourth "profile".
	if tk.NumProfiles() != 3 {
		t.Fatalf("NumProfiles = %d, want 3", tk.NumProfiles())
	}

	// Composition order is the sorted profile file names, independent of
	// the concurrent completion order.
	var wantOrder []string
	names := map[string]string{} // file name -> spec ID
	for _, sr := range res.Specs {
		names[filepath.Base(sr.Path)] = sr.Spec.ID()
	}
	files := make([]string, 0, len(names))
	for f := range names {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		wantOrder = append(wantOrder, names[f])
	}
	if got := tk.MetadataColumn("campaign.spec"); !reflect.DeepEqual(got, wantOrder) {
		t.Errorf("profile order = %v, want %v", got, wantOrder)
	}

	// Every profile carries the same metadata keys (machine, variant, ...)
	// with different values — a collision FromDir must keep per-profile,
	// not merge.
	machines := tk.MetadataColumn("machine")
	seen := map[string]bool{}
	for _, m := range machines {
		seen[m] = true
	}
	if len(seen) != 3 {
		t.Errorf("machine column %v lost per-profile values", machines)
	}
	// Grouping keeps profile IDs stable, so each group's rows reference
	// exactly one underlying run: one spec, since every spec differs.
	groups := tk.GroupBy("machine")
	if len(groups) != 3 {
		t.Fatalf("GroupBy(machine) = %d groups, want 3", len(groups))
	}
	for m, g := range groups {
		if specs := g.GroupBy("campaign.spec"); len(specs) != 1 {
			t.Errorf("group %q rows span %d specs, want 1", m, len(specs))
		}
	}
}

func TestConcatRenumbersCampaignProfiles(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	runCampaign(t, dirA, []string{"SPR-DDR", "SPR-HBM"})
	runCampaign(t, dirB, []string{"P9-V100"})

	psA, err := caliper.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	psB, err := caliper.ReadDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := thicket.FromProfiles(psA), thicket.FromProfiles(psB)
	tk := thicket.FromProfiles(slices.Concat(psA, psB))
	if tk.NumProfiles() != 3 {
		t.Fatalf("NumProfiles = %d, want 3", tk.NumProfiles())
	}
	if tk.NumRows() != ta.NumRows()+tb.NumRows() {
		t.Errorf("NumRows = %d, want %d", tk.NumRows(), ta.NumRows()+tb.NumRows())
	}
	// The second campaign's rows must point at the renumbered profile 2,
	// whose metadata is the concatenated campaign's: grouping by machine
	// gives that profile exactly the second campaign's rows.
	if got := tk.MetadataColumn("machine")[2]; got != "P9-V100" {
		t.Errorf("profile 2 machine = %q, want the concatenated campaign's", got)
	}
	groups := tk.GroupBy("machine")
	rows := 0
	for _, g := range groups {
		rows += g.NumRows()
	}
	if rows != tk.NumRows() {
		t.Errorf("machine groups hold %d rows, want all %d", rows, tk.NumRows())
	}
	if g := groups["P9-V100"]; g == nil || g.NumRows() != tb.NumRows() {
		t.Errorf("P9-V100 group does not hold exactly the second campaign's %d rows", tb.NumRows())
	}

}
