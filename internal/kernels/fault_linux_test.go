// The race detector's shadow memory faults in on first access whatever
// the program stored before, so the fault counts only mean something
// without it.

//go:build !race

package kernels_test

import (
	"runtime/debug"
	"syscall"
	"testing"

	"rajaperf/internal/kernels"
)

// faultSlack is the page-fault noise a run may show without touching a
// buffer page for the first time: runtime bookkeeping, goroutine stacks
// and small allocations. The Comm kernels' first run shows up to 40 more
// faults than their second; one 2 MiB buffer left untouched shows 512.
const faultSlack = 64

// minorFaults returns the process's minor page faults so far.
func minorFaults(t *testing.T) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return ru.Minflt
}

// TestSetUpFaultsPagesIn checks that every kernel's buffers are backed by
// the time SetUp returns, so no timed Run pays the page faults of memory
// it touches first, and that a Base_Seq run allocates no fresh pages of
// its own. Each kernel starts from a heap whose free pages went back to
// the OS, the state in which a make'd buffer is untouched memory. At
// 256 Ki elements every Size-length float64 array is 2 MiB.
func TestSetUpFaultsPagesIn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every kernel at 256 Ki elements")
	}
	// simmpi's Send copies each message, as an MPI eager send does, so
	// these kernels allocate their messages inside every run.
	copiesMessages := map[string]bool{
		"Comm_HALO_EXCHANGE":       true,
		"Comm_HALO_EXCHANGE_FUSED": true,
		"Comm_HALO_SENDRECV":       true,
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rp := kernels.RunParams{Size: 1 << 18, Reps: 1}
	for _, name := range kernels.Names() {
		k, err := kernels.New(name)
		if err != nil {
			t.Fatal(err)
		}
		debug.FreeOSMemory()
		k.SetUp(rp)
		var runs [2]int64
		for i := range runs {
			before := minorFaults(t)
			if err := k.Run(kernels.BaseSeq, rp); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runs[i] = minorFaults(t) - before
		}
		k.TearDown()
		if runs[0] > runs[1]+faultSlack {
			t.Errorf("%s: first Base_Seq run took %d minor faults, the second %d: SetUp left buffer pages untouched",
				name, runs[0], runs[1])
		}
		if runs[1] > faultSlack && !copiesMessages[name] {
			t.Errorf("%s: second Base_Seq run took %d minor faults: the run allocates fresh memory", name, runs[1])
		}
	}
}
