package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// conditions are stamped into every result: what the numbers were
// measured under, so a run can be judged from its output alone.
type conditions struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	SeedFlag   bool           `json:"seed_given"` // false: the default seed was used
	Trace      bool           `json:"trace"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	OutDirFS   string         `json:"outdir_fs"`
	L2         string         `json:"l2_cache"`
	L3         string         `json:"l3_cache"`
	Seconds    int            `json:"seconds"`
	Setups     int            `json:"setups"`
	Iterations int            `json:"iterations"`
	Plan       map[string]any `json:"plan"`
	// Samples is the sample count behind each reported median or
	// percentile, and Beyond how many samples lie past it.
	Samples map[string]int `json:"samples"`
	Beyond  map[string]int `json:"beyond"`
}

func newConditions(workload string, seed int64, seedGiven, trace bool, commit, outDir string, seconds, setups int) *conditions {
	return &conditions{
		Workload:   workload,
		Seed:       seed,
		SeedFlag:   seedGiven,
		Trace:      trace,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		OutDirFS:   fsType(outDir),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		Seconds:    seconds,
		Setups:     setups,
		Plan:       map[string]any{},
		Samples:    map[string]int{},
		Beyond:     map[string]int{},
	}
}

// sample records the sample count behind a metric reported as the
// p-quantile of its samples.
func (c *conditions) sample(metric string, n int, p float64) {
	c.Samples[metric] = n
	c.Beyond[metric] = beyondCount(n, p)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "unknown"
}

// cacheSize reads the size of cpu0's cache at the given level from sysfs.
func cacheSize(level int) string {
	idx, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range idx {
		lv, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(lv)) != string(rune('0'+level)) {
			continue
		}
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if sz, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}
