// Quickstart: run a handful of suite kernels in several variants on the
// host, verify their checksums agree across variants, and print the
// analytic metrics — the smallest useful tour of the public API. Each
// variant is one suite run, whose profile carries every kernel's
// measured wall time and checksum beside its analytic metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/suite"
)

func main() {
	names := []string{"Stream_TRIAD", "Stream_DOT", "Basic_DAXPY", "Basic_PI_REDUCE"}
	variants := []kernels.VariantID{
		kernels.BaseSeq, kernels.RAJASeq,
		kernels.BaseOpenMP, kernels.RAJAOpenMP, kernels.RAJAGPU,
	}
	profiles := make([]*caliper.Profile, len(variants))
	for i, v := range variants {
		p, err := suite.Run(suite.Config{Machine: machine.Host(), Variant: v,
			Execute: true, Kernels: names, SizePerNode: 500_000, Reps: 5})
		if err != nil {
			log.Fatal(err)
		}
		profiles[i] = p
	}

	for _, name := range names {
		var ref float64
		for i, v := range variants {
			rec := profiles[i].Find(name)
			if rec == nil || rec.Metrics["error"] != 0 {
				log.Fatalf("%s %s did not run: %v", name, v, profiles[i].Metadata["errors"])
			}
			m := rec.Metrics
			cs := m["checksum"]
			status := "ref"
			if i == 0 {
				ref = cs
				fmt.Printf("%s  (%.1f MB touched, %.2f flops/byte per rep)\n",
					name, (m["Bytes/Rep Read"]+m["Bytes/Rep Written"])/1e6, m["FlopsPerByte"])
			} else if kernels.ChecksumsClose(cs, ref) {
				status = "OK"
			} else {
				status = fmt.Sprintf("MISMATCH (ref %v)", ref)
			}
			elapsed := time.Duration(m["wall_time"] * float64(time.Second))
			fmt.Printf("  %-14s %10v  checksum %-18.10g %s\n", v, elapsed.Round(time.Microsecond), cs, status)
		}
		fmt.Println()
	}
}
