// multithreaded runs a SPLASH2-style shared-memory application on a 16-core
// chip with DELTA's Section II-E support: pages are classified private or
// shared R-NUCA-style; private pages follow the CBT while shared pages use
// the fixed S-NUCA mapping, keeping coherence intact.
//
//	go run ./examples/multithreaded            # default app: ocean.cont
//	go run ./examples/multithreaded water.nsq
package main

import (
	"fmt"
	"os"

	"delta"
	"delta/internal/workloads"
)

func main() {
	name := "ocean.cont"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	app := workloads.Splash2ByName(name)

	page, block := app.SharedApp(16, 1).PrivateRatios(20000)
	fmt.Printf("%s: %.1f%% private pages, %.1f%% private blocks (paper: %.1f%% pages)\n",
		name, page*100, block*100, app.PagePrivate)

	run := func(policy delta.PolicyKind) uint64 {
		sim, err := delta.New(
			delta.WithCores(16),
			delta.WithPolicy(policy),
			delta.WithMultithreaded(true),
			delta.WithWarmup(200_000),
			delta.WithBudget(150_000),
		)
		if err != nil {
			panic(err)
		}
		defer sim.Close() // optional: recycles the chip for the next run
		gens := app.ThreadGenerators(16, 1)
		for t, g := range gens {
			sim.SetWorkload(t, delta.Workload{Generator: g, SharedAddressSpace: true})
		}
		all := make([]int, 16)
		for i := range all {
			all[i] = i
		}
		sim.SetProcessGroup(all, 0) // threads of one process never challenge each other
		res := sim.Run()
		// Region-of-interest metric: cycles of the longest-running thread.
		var max uint64
		for _, c := range res.Cores {
			if c.Cycles > max {
				max = c.Cycles
			}
		}
		return max
	}

	snuca := run(delta.PolicySnuca)
	private := run(delta.PolicyPrivate)
	dl := run(delta.PolicyDelta)
	fmt.Printf("ROI cycles  s-nuca: %d  private: %d  delta: %d\n", snuca, private, dl)
	fmt.Printf("delta speedup vs s-nuca: %+.1f%%  vs private: %+.1f%%\n",
		(float64(snuca)/float64(dl)-1)*100, (float64(private)/float64(dl)-1)*100)
}
