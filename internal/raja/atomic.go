package raja

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// AtomicAddFloat64 atomically adds v to *p and returns the new value,
// mirroring RAJA::atomicAdd<RAJA::auto_atomic> on doubles. It is the
// primitive behind the suite's ATOMIC, DAXPY_ATOMIC, and PI_ATOMIC kernels.
func AtomicAddFloat64(p *float64, v float64) float64 {
	addr := (*uint64)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint64(addr)
		cur := math.Float64frombits(old)
		next := cur + v
		if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(next)) {
			return next
		}
	}
}

// AtomicAddInt64 atomically adds v to *p and returns the new value.
func AtomicAddInt64(p *int64, v int64) int64 {
	return atomic.AddInt64(p, v)
}
