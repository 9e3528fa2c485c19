// Portability: measure the RAJA abstraction overhead the suite was
// originally built to quantify — run the Base and RAJA variants of
// several kernels on the host with real wall-clock timing and report
// RAJA-vs-Base ratios per back-end. Base and RAJA run the kernel's one
// loop body, so a ratio away from 1.00 is the portability layer's
// dispatch cost (or timing noise). Each variant is one host suite run,
// and a ratio divides two kernel nodes' wall_time.
//
//	go run ./examples/portability
package main

import (
	"fmt"
	"log"

	"rajaperf/internal/caliper"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/suite"
)

// wallTime returns the kernel's measured wall time in p, or false when
// the kernel lacks p's variant.
func wallTime(p *caliper.Profile, name string) (float64, bool) {
	rec := p.Find(name)
	if rec == nil {
		return 0, false
	}
	if rec.Metrics["error"] != 0 {
		log.Fatalf("%s %v: %v", name, p.Metadata["variant"], p.Metadata["errors"])
	}
	return rec.Metrics["wall_time"], true
}

func main() {
	names := []string{
		"Stream_TRIAD", "Stream_DOT", "Basic_DAXPY", "Basic_IF_QUAD",
		"Lcals_HYDRO_1D", "Lcals_EOS", "Apps_FIR", "Apps_VOL3D",
	}
	pairs := []struct{ base, raja kernels.VariantID }{
		{kernels.BaseSeq, kernels.RAJASeq},
		{kernels.BaseOpenMP, kernels.RAJAOpenMP},
		{kernels.BaseGPU, kernels.RAJAGPU},
	}
	profiles := map[kernels.VariantID]*caliper.Profile{}
	for _, p := range pairs {
		for _, v := range []kernels.VariantID{p.base, p.raja} {
			prof, err := suite.Run(suite.Config{Machine: machine.Host(), Variant: v,
				Execute: true, Kernels: names, SizePerNode: 400_000, Reps: 3})
			if err != nil {
				log.Fatal(err)
			}
			profiles[v] = prof
		}
	}

	fmt.Println("RAJA/Base wall-time ratio per back-end (host execution;")
	fmt.Println("1.00 = zero abstraction overhead, lower is faster than Base).")
	fmt.Printf("%-20s %10s %10s %10s\n", "kernel", "Seq", "OpenMP", "GPU-style")
	for _, name := range names {
		fmt.Printf("%-20s", name)
		for _, p := range pairs {
			tb, ok1 := wallTime(profiles[p.base], name)
			tr, ok2 := wallTime(profiles[p.raja], name)
			if !ok1 || !ok2 {
				fmt.Printf(" %10s", "n/a")
				continue
			}
			fmt.Printf(" %10.2f", tr/tb)
		}
		fmt.Println()
	}
}
