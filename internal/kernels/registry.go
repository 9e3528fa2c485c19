package kernels

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// registry holds kernel factories and each kernel's sort key.
var registry = struct {
	sync.Mutex
	sorted    []entry // by group, then name: the order Names returns
	factories map[string]func() Kernel
}{factories: map[string]func() Kernel{}}

// entry is one registered kernel's figure-order sort key and full name,
// recorded at Register so sorting never constructs a kernel.
type entry struct {
	group      Group
	name, full string
}

func (a entry) compare(b entry) int {
	if a.group != b.group {
		return cmp.Compare(a.group, b.group)
	}
	return strings.Compare(a.name, b.name)
}

// Register adds a kernel factory to the global registry. It panics if a
// kernel with the same full name is already registered. Kernel packages
// call it from init.
func Register(f func() Kernel) {
	info := f().Info()
	e := entry{group: info.Group, name: info.Name, full: info.FullName()}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[e.full]; dup {
		panic(fmt.Sprintf("kernels: duplicate registration of %s", e.full))
	}
	registry.factories[e.full] = f
	i, _ := slices.BinarySearchFunc(registry.sorted, e, entry.compare)
	registry.sorted = slices.Insert(registry.sorted, i, e)
}

// Names returns the full names of all registered kernels sorted by group
// then name, the order the paper's figures use.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	names := make([]string, len(registry.sorted))
	for i, e := range registry.sorted {
		names[i] = e.full
	}
	return names
}

// New constructs a fresh instance of the named kernel.
func New(fullName string) (Kernel, error) {
	registry.Lock()
	f, ok := registry.factories[fullName]
	registry.Unlock()
	if !ok {
		return nil, fmt.Errorf("kernels: unknown kernel %q", fullName)
	}
	return f(), nil
}

// All constructs one instance of every registered kernel in figure order.
func All() []Kernel {
	names := Names()
	ks := make([]Kernel, 0, len(names))
	for _, n := range names {
		k, err := New(n)
		if err != nil {
			panic(err) // unreachable: names came from the registry
		}
		ks = append(ks, k)
	}
	return ks
}

// ByGroup constructs all kernels of one group in figure order.
func ByGroup(g Group) []Kernel {
	var ks []Kernel
	for _, k := range All() {
		if k.Info().Group == g {
			ks = append(ks, k)
		}
	}
	return ks
}

// WithFeature constructs all kernels annotated with feature f.
func WithFeature(f Feature) []Kernel {
	var ks []Kernel
	for _, k := range All() {
		if k.Info().HasFeature(f) {
			ks = append(ks, k)
		}
	}
	return ks
}

// Count returns the number of registered kernels.
func Count() int {
	registry.Lock()
	defer registry.Unlock()
	return len(registry.factories)
}
