// Quickstart: simulate one multi-programmed SPEC mix on a 16-core tiled CMP
// under DELTA and under the unpartitioned S-NUCA baseline, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"delta"
)

func main() {
	run := func(policy delta.PolicyKind) delta.Result {
		// The experiment harness's default compression (DESIGN.md §3).
		sim, err := delta.New(
			delta.WithCores(16),
			delta.WithPolicy(policy),
			delta.WithWarmup(400_000),
			delta.WithBudget(250_000),
		)
		if err != nil {
			panic(err)
		}
		// Optional: hands the chip's arrays to the next simulator built
		// in this process instead of leaving them to the garbage collector.
		defer sim.Close()
		sim.LoadMix("w2") // Table IV: thrashing + sensitive apps
		return sim.Run()
	}

	base := run(delta.PolicySnuca)
	part := run(delta.PolicyDelta)

	fmt.Printf("%-12s geomean IPC %.4f\n", "s-nuca", base.GeoMeanIPC())
	fmt.Printf("%-12s geomean IPC %.4f\n", "delta", part.GeoMeanIPC())
	fmt.Printf("speedup: %+.1f%%\n", (part.GeoMeanIPC()/base.GeoMeanIPC()-1)*100)
	fmt.Printf("DELTA control traffic: %.3f%% of NoC messages\n",
		part.ControlMessageFraction*100)

	fmt.Println("\nper-core IPC (snuca -> delta):")
	for i := range part.Cores {
		b, d := base.Cores[i], part.Cores[i]
		fmt.Printf("  core %2d  %.3f -> %.3f\n", i, b.IPC, d.IPC)
	}
}
