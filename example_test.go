package delta_test

import (
	"fmt"
	"sort"

	"delta"
)

// ExampleNew runs a tiny DELTA simulation on one of the paper's workload
// mixes and prints stable facts about the outcome.
func ExampleNew() {
	sim, err := delta.New(delta.WithCores(16), delta.WithPolicy(delta.PolicyDelta),
		delta.WithWarmup(20_000), delta.WithBudget(20_000))
	if err != nil {
		panic(err)
	}
	sim.LoadMix("w1")
	res := sim.Run()
	fmt.Println("cores:", len(res.Cores))
	fmt.Println("policy:", res.Policy)
	// Output:
	// cores: 16
	// policy: delta
}

// ExampleSimulator_Close runs the same simulation twice in a row. Each
// simulator is closed once its result is read, so the second draws the
// first one's arrays instead of allocating its own. Closing is optional and
// changes no result.
func ExampleSimulator_Close() {
	run := func() float64 {
		sim, err := delta.New(delta.WithCores(16), delta.WithPolicy(delta.PolicySnuca),
			delta.WithWarmup(10_000), delta.WithBudget(10_000))
		if err != nil {
			panic(err)
		}
		defer sim.Close()
		sim.LoadMix("w3")
		return sim.Run().GeoMeanIPC()
	}
	first, second := run(), run()
	fmt.Println("identical:", first == second)
	// Output:
	// identical: true
}

// ExampleLookupApp resolves built-in SPEC CPU2006 models by name or short
// code.
func ExampleLookupApp() {
	a, _ := delta.LookupApp("xa")
	fmt.Println(a.Name, a.Class)
	b, _ := delta.LookupApp("libquantum")
	fmt.Println(b.Short, b.Class)
	// Output:
	// xalancbmk LM
	// li T
}

// ExampleMixNames lists the Table IV workload mixes.
func ExampleMixNames() {
	names := delta.MixNames()
	sort.Strings(names)
	fmt.Println(len(names), names[0])
	// Output:
	// 15 w1
}
