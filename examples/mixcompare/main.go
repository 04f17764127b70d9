// mixcompare sweeps one workload mix across all four partitioning policies
// and prints the per-policy breakdown plus DELTA's final capacity
// allocation — the scenario of the paper's Figures 5, 7 and 8.
//
//	go run ./examples/mixcompare          # default mix w6
//	go run ./examples/mixcompare w13
package main

import (
	"fmt"
	"os"

	"delta"
	"delta/internal/core"
	"delta/internal/metrics"
)

func main() {
	mix := "w6"
	if len(os.Args) > 1 {
		mix = os.Args[1]
	}

	policies := []delta.PolicyKind{
		delta.PolicySnuca, delta.PolicyPrivate, delta.PolicyDelta, delta.PolicyIdeal,
	}
	results := map[delta.PolicyKind]delta.Result{}
	var deltaSim *delta.Simulator
	for _, p := range policies {
		sim, err := delta.New(
			delta.WithCores(16),
			delta.WithPolicy(p),
			delta.WithWarmup(300_000),
			delta.WithBudget(200_000),
		)
		if err != nil {
			panic(err)
		}
		sim.LoadMix(mix)
		results[p] = sim.Run()
		if p == delta.PolicyDelta {
			deltaSim = sim
		}
	}

	base := results[delta.PolicySnuca].GeoMeanIPC()
	t := metrics.NewTable(fmt.Sprintf("mix %s on a 16-core CMP", mix),
		"policy", "geomean IPC", "vs s-nuca")
	for _, p := range policies {
		g := results[p].GeoMeanIPC()
		t.AddRow(string(p), fmt.Sprintf("%.4f", g), fmt.Sprintf("%+.1f%%", (g/base-1)*100))
	}
	fmt.Println(t.String())

	fmt.Println("DELTA's final allocations (ways across all banks):")
	d := deltaSim.Policy().(*core.Delta)
	for _, c := range results[delta.PolicyDelta].Cores {
		bar := ""
		for i := 0; i < d.TotalWays(c.Core)/2; i++ {
			bar += "#"
		}
		fmt.Printf("  core %2d %3d ways %s\n", c.Core, d.TotalWays(c.Core), bar)
	}
	fmt.Printf("\nchallenges won/sent: %d/%d, retreats: %d, invalidated lines: %d\n",
		d.Stats.ChallengesWon, d.Stats.ChallengesSent, d.Stats.Retreats, d.Stats.InvalLines)
}
