package rajaperf

import (
	"slices"
	"testing"
	"time"

	"rajaperf/internal/kernels"
)

// BenchmarkPortability measures the RAJA-vs-Base abstraction gap. Base
// and RAJA variants run each kernel's one loop or reduction body, so for
// each kernel it times Base_Seq and RAJA_Seq as paired runs under one
// sub-benchmark that cmd/benchgate's portability mode parses:
//
//	go test -run '^$' -bench BenchmarkPortability -benchtime 200x -count 3 . > bench_portability.txt
//	go run ./cmd/benchgate -portability -baseline testdata/portability_baseline.json \
//	    -out BENCH_portability.json bench_portability.txt
//
// Each iteration runs both variants back to back, alternating which goes
// first, and the gate's ratio is the median over iterations of the two
// runs' time ratio. Host drift slower than one pair (a few ms) and any
// advantage of running second cancel; timing the variants in separate
// windows let the ratio of one loop body to itself spread 0.83-1.19 on a
// 2-vCPU host.
//
// Seq variants are the reliable portability probe on small CI hosts:
// parallel back-ends degenerate to one lane there and measure dispatch
// noise, not abstraction overhead.
func BenchmarkPortability(b *testing.B) {
	const size = 1 << 20
	names := []string{
		"Stream_TRIAD", "Stream_ADD", "Stream_COPY", "Stream_MUL",
		"Stream_DOT", "Basic_DAXPY", "Lcals_HYDRO_1D", "Lcals_EOS",
		"Algorithm_REDUCE_SUM", "Basic_PI_REDUCE", "Basic_TRAP_INT",
		"Basic_REDUCE3_INT", "Basic_REDUCE_STRUCT", "Lcals_FIRST_MIN",
	}
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			k, err := kernels.New(name)
			if err != nil {
				b.Fatal(err)
			}
			rp := kernels.RunParams{Size: size, Reps: 1}
			k.SetUp(rp)
			defer k.TearDown()

			timed := func(v kernels.VariantID) time.Duration {
				start := time.Now()
				if err := k.Run(v, rp); err != nil {
					b.Fatal(err)
				}
				return time.Since(start)
			}
			timed(kernels.BaseSeq)
			timed(kernels.RAJASeq)
			var base, raja time.Duration
			ratios := make([]float64, b.N)
			b.ResetTimer()
			for i := range b.N {
				var tb, tr time.Duration
				if i%2 == 0 {
					tb = timed(kernels.BaseSeq)
					tr = timed(kernels.RAJASeq)
				} else {
					tr = timed(kernels.RAJASeq)
					tb = timed(kernels.BaseSeq)
				}
				base += tb
				raja += tr
				ratios[i] = float64(tr) / float64(tb)
			}
			b.StopTimer()
			slices.Sort(ratios)
			b.ReportMetric(float64(base.Nanoseconds())/float64(b.N), "base_seq_ns/op")
			b.ReportMetric(float64(raja.Nanoseconds())/float64(b.N), "raja_seq_ns/op")
			b.ReportMetric(ratios[b.N/2], "raja/base")
		})
	}
}
