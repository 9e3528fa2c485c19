package kernels_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rajaperf/internal/kernels"
	_ "rajaperf/internal/kernels/algorithms"
	_ "rajaperf/internal/kernels/apps"
	_ "rajaperf/internal/kernels/basic"
	_ "rajaperf/internal/kernels/comm"
	_ "rajaperf/internal/kernels/lcals"
	_ "rajaperf/internal/kernels/polybench"
	_ "rajaperf/internal/kernels/stream"
)

// TestNamesFigureOrder checks Names against a reference sort that builds
// each kernel to read its group and name, from a shuffled start, and that
// Names allocates only the slice it returns.
func TestNamesFigureOrder(t *testing.T) {
	got := kernels.Names()
	if len(got) != kernels.Count() {
		t.Fatalf("Names() has %d kernels, Count() = %d", len(got), kernels.Count())
	}
	want := slices.Clone(got)
	rand.New(rand.NewSource(1)).Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	info := func(name string) *kernels.Info {
		k, err := kernels.New(name)
		if err != nil {
			t.Fatal(err)
		}
		return k.Info()
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := info(want[i]), info(want[j])
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Name < b.Name
	})
	if !slices.Equal(got, want) {
		t.Errorf("Names() = %v\nreference order %v", got, want)
	}
	if n := testing.AllocsPerRun(20, func() { kernels.Names() }); n > 1 {
		t.Errorf("Names() allocates %v times per call, want at most 1", n)
	}
}
