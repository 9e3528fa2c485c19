// Portability: measure the RAJA abstraction overhead the suite was
// originally built to quantify — run Base, Lambda, and RAJA variants of
// several kernels on the host with real wall-clock timing and report
// RAJA-vs-Base ratios per back-end. Base and RAJA run the kernel's one
// loop body, so a ratio away from 1.00 is the portability layer's
// dispatch cost (or timing noise).
//
//	go run ./examples/portability
package main

import (
	"fmt"
	"log"
	"time"

	"rajaperf/internal/kernels"
	_ "rajaperf/internal/kernels/apps"
	_ "rajaperf/internal/kernels/basic"
	_ "rajaperf/internal/kernels/lcals"
	_ "rajaperf/internal/kernels/stream"
)

func timeVariant(k kernels.Kernel, v kernels.VariantID, rp kernels.RunParams) (float64, bool) {
	if !k.Info().HasVariant(v) {
		return 0, false
	}
	// Warm up once, then take the best of three.
	if err := k.Run(v, rp); err != nil {
		log.Fatalf("%s %s: %v", k.Info().FullName(), v, err)
	}
	best := 0.0
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := k.Run(v, rp); err != nil {
			log.Fatal(err)
		}
		if el := time.Since(start).Seconds(); best == 0 || el < best {
			best = el
		}
	}
	return best, true
}

func main() {
	rp := kernels.RunParams{Size: 400_000, Reps: 3}
	pairs := []struct{ base, raja kernels.VariantID }{
		{kernels.BaseSeq, kernels.RAJASeq},
		{kernels.BaseOpenMP, kernels.RAJAOpenMP},
		{kernels.BaseGPU, kernels.RAJAGPU},
	}

	fmt.Println("RAJA/Base wall-time ratio per back-end (host execution;")
	fmt.Println("1.00 = zero abstraction overhead, lower is faster than Base).")
	fmt.Printf("%-20s %10s %10s %10s\n", "kernel", "Seq", "OpenMP", "GPU-style")
	for _, name := range []string{
		"Stream_TRIAD", "Stream_DOT", "Basic_DAXPY", "Basic_IF_QUAD",
		"Lcals_HYDRO_1D", "Lcals_EOS", "Apps_FIR", "Apps_VOL3D",
	} {
		k, err := kernels.New(name)
		if err != nil {
			log.Fatal(err)
		}
		k.SetUp(rp)
		fmt.Printf("%-20s", name)
		for _, p := range pairs {
			tb, ok1 := timeVariant(k, p.base, rp)
			tr, ok2 := timeVariant(k, p.raja, rp)
			if !ok1 || !ok2 {
				fmt.Printf(" %10s", "n/a")
				continue
			}
			fmt.Printf(" %10.2f", tr/tb)
		}
		fmt.Println()
		k.TearDown()
	}
}
