// phases demonstrates why frequent reconfiguration matters (the paper's
// Fig. 13): a workload whose capacity demand alternates between phases is
// simulated under the ideal centralized policy at a fast and at a 100x
// slower reallocation interval — the slow configuration keeps serving the
// previous phase's allocation.
//
//	go run ./examples/phases
package main

import (
	"fmt"

	"delta"
	"delta/internal/central"
	"delta/internal/trace"
)

func main() {
	// A phased app on core 0: alternating 2 MB and 64 KB working sets.
	// Steady cache-sensitive neighbours fill the rest of the chip.
	mkPhased := func() trace.Generator {
		return trace.NewShaper(trace.NewPhasedGen(
			trace.Phase{Gen: trace.NewRegionGen(0, trace.Lines(2048), 1), Accesses: 30_000},
			trace.Phase{Gen: trace.NewRegionGen(0, trace.Lines(64), 2), Accesses: 30_000},
		), trace.ShaperConfig{MemFraction: 0.3, Burst: 4, Seed: 3})
	}

	run := func(interval uint64) float64 {
		cfg := central.DefaultIdealConfig()
		cfg.Interval = interval
		sim, err := delta.New(
			delta.WithCores(16),
			delta.WithPolicy(delta.PolicyIdeal),
			delta.WithPolicyParams(delta.PolicyIdeal, cfg),
			delta.WithWarmup(300_000),
			delta.WithBudget(250_000),
		)
		if err != nil {
			panic(err)
		}
		defer sim.Close() // optional: recycles the chip for the next run
		sim.SetWorkload(0, delta.Workload{Generator: mkPhased()})
		for i := 1; i < 16; i++ {
			sim.SetWorkload(i, delta.Workload{App: "omnetpp"})
		}
		return sim.Run().GeoMeanIPC()
	}

	fast := run(80_000)    // 1 ms equivalent under 50x time compression
	slow := run(8_000_000) // 100 ms equivalent
	fmt.Printf("ideal centralized @ 1ms-equivalent:   geomean IPC %.4f\n", fast)
	fmt.Printf("ideal centralized @ 100ms-equivalent: geomean IPC %.4f\n", slow)
	fmt.Printf("frequent reconfiguration advantage: %+.1f%%\n", (fast/slow-1)*100)
}
