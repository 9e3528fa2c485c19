package kernels

import (
	"math"
	"os"
	"unsafe"
)

// Alloc returns a float64 buffer of n elements, or nil when the run is
// model-only: SetUp then computes analytic metrics and instruction mixes
// without paying for data the hardware models never read. The InitData
// helpers are no-ops on nil buffers, so SetUp code is written once for
// both modes; explicit element writes must be guarded. Run is never called
// on a model-only set-up.
func (rp RunParams) Alloc(n int) []float64 { return alloc[float64](rp, n) }

// AllocI64 is Alloc for int64 buffers.
func (rp RunParams) AllocI64(n int) []int64 { return alloc[int64](rp, n) }

// AllocI32 is Alloc for int32 buffers.
func (rp RunParams) AllocI32(n int) []int32 { return alloc[int32](rp, n) }

// alloc backs the Alloc helpers. make returns zeroed memory that the OS
// may not have mapped yet, so the first store to each page faults; one
// store per page here makes SetUp pay those faults instead of the first
// timed Run of whichever buffer SetUp leaves uninitialized.
func alloc[T float64 | int64 | int32](rp RunParams, n int) []T {
	if rp.ModelOnly {
		return nil
	}
	x := make([]T, n)
	step := os.Getpagesize() / int(unsafe.Sizeof(x[0]))
	for i := 0; i < n; i += step {
		x[i] = 0
	}
	return x
}

// KernelBase carries the state common to every kernel implementation:
// static info, the analytic metrics and instruction mix computed at SetUp,
// and the output checksum. Kernel types embed it and implement SetUp, Run,
// and TearDown.
type KernelBase struct {
	info     Info
	metrics  AnalyticMetrics
	mix      Mix
	checksum float64
}

// NewKernelBase returns a base initialized with the kernel's static info.
func NewKernelBase(info Info) KernelBase { return KernelBase{info: info} }

// Info returns the kernel's static description.
func (b *KernelBase) Info() *Info { return &b.info }

// Metrics returns the analytic metrics set by the last SetUp.
func (b *KernelBase) Metrics() AnalyticMetrics { return b.metrics }

// Mix returns the instruction mix set by the last SetUp.
func (b *KernelBase) Mix() Mix { return b.mix }

// Checksum returns the digest of the last Run's outputs.
func (b *KernelBase) Checksum() float64 { return b.checksum }

// SetMetrics records the per-rep analytic metrics for the current size.
func (b *KernelBase) SetMetrics(m AnalyticMetrics) { b.metrics = m }

// SetMix records the instruction mix for the current size.
func (b *KernelBase) SetMix(m Mix) { b.mix = m }

// SetChecksum records the output digest.
func (b *KernelBase) SetChecksum(c float64) { b.checksum = c }

// Unsupported returns the error Run must produce for missing variants.
func (b *KernelBase) Unsupported(v VariantID) error {
	return &ErrVariantUnsupported{Kernel: b.info.FullName(), Variant: v}
}

// checksumScale keeps digests in a comparable range across problem sizes.
const checksumScale = 1e-3

// ChecksumSlice digests a float64 slice with index weighting so that
// permuted outputs produce different digests. It mirrors the suite's
// calcChecksum.
func ChecksumSlice(x []float64) float64 {
	var s float64
	w := checksumScale
	for i, v := range x {
		s += v * (float64(i%1024) + 1) * w
		if (i+1)%1024 == 0 {
			// Rescale periodically to keep magnitudes bounded on
			// large arrays.
			w = checksumScale / (1 + float64(i)/1e6)
		}
	}
	return s
}

// ChecksumInts digests an integer slice the same way.
func ChecksumInts(x []int64) float64 {
	var s float64
	for i, v := range x {
		s += float64(v) * (float64(i%1024) + 1) * checksumScale
	}
	return s
}

// InitData fills x with the suite's deterministic initialization pattern:
// small positive values that vary per element but keep sums exactly
// representable enough for cross-variant comparison.
func InitData(x []float64, factor float64) {
	for i := range x {
		x[i] = factor * 0.1 * float64(i%10+1) / 10.0
	}
}

// InitDataSigned fills x with alternating-sign deterministic data.
func InitDataSigned(x []float64, factor float64) {
	for i := range x {
		v := factor * 0.1 * float64(i%10+1) / 10.0
		if i%2 == 1 {
			v = -v
		}
		x[i] = v
	}
}

// InitDataConst fills x with a constant.
func InitDataConst(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// InitDataRand fills x with deterministic pseudo-random values in [0, 1)
// from a splitmix64 stream seeded by seed; runs are reproducible.
func InitDataRand(x []float64, seed uint64) {
	s := seed
	for i := range x {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		x[i] = float64(z>>11) / float64(1<<53)
	}
}

// InitIntsRand fills x with deterministic pseudo-random ints in [0, mod).
func InitIntsRand(x []int64, seed uint64, mod int64) {
	s := seed
	for i := range x {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		x[i] = int64(z % uint64(mod))
	}
}

// ChecksumsClose reports whether two checksums agree within the suite's
// cross-variant tolerance (reductions legitimately reassociate).
func ChecksumsClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff/scale < 1e-6
}
