// Command delta-sim runs single simulations: one workload mix (or a single
// application on every core), one chip size, and one or more policies — and
// prints per-core and aggregate results. It is the quickest way to poke at
// the simulator.
//
// -policy accepts a single scheme, a comma-separated list, or "all"; with
// several policies the simulations run concurrently across -parallel workers
// (default runtime.NumCPU()) while output keeps the requested order. Results
// are bit-identical at any worker count: each simulation owns all of its
// state.
//
// Examples:
//
//	delta-sim -policy delta -mix w2
//	delta-sim -policy snuca -app mcf -cores 16
//	delta-sim -policy all -mix w13 -cores 64 -budget 100000
//	delta-sim -policy snuca,delta -mix w2 -parallel 1
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"delta"
	"delta/internal/bankbw"
	"delta/internal/core"
	"delta/internal/experiments"
	"delta/internal/metrics"
	"delta/internal/profiling"
	"delta/internal/version"
)

func main() {
	policy := flag.String("policy", "delta", `policy to simulate: any registered policy (snuca, private, delta, ideal, lfoc, carma, bankbw, ...), a comma-separated list, or "all" for every registered policy`)
	mix := flag.String("mix", "", "Table IV mix name (w1..w15)")
	app := flag.String("app", "", "run this SPEC model on every core instead of a mix")
	cores := flag.Int("cores", 16, "core count (perfect square, multiple of 16 for mixes)")
	warm := flag.Uint64("warmup", 400_000, "warm-up instructions per core")
	budget := flag.Uint64("budget", 250_000, "measured instructions per core")
	seed := flag.Uint64("seed", 1, "workload seed")
	compress := flag.Uint64("compress", 50, "time compression of reconfiguration intervals")
	scenarioPath := flag.String("scenario", "", "JSON file scripting dynamic events (arrivals, departures, migration, spikes, storms) applied at quantum boundaries")
	parallel := flag.Int("parallel", runtime.NumCPU(), "workers when simulating several policies (1 = sequential)")
	check := flag.Bool("check", false, "run simulator-wide invariant checks every quantum and after every remap (slow; panics on the first violation)")
	fastforward := flag.Bool("fastforward", false, "skip simulated warmup: seed UMON counters and cache contents from the workloads' analytical locality models (DESIGN.md §10)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("delta-sim", version.String())
		return
	}
	if (*mix == "") == (*app == "") {
		fmt.Fprintln(os.Stderr, "exactly one of -mix or -app is required")
		os.Exit(2)
	}

	policies := strings.Split(*policy, ",")
	if *policy == "all" {
		policies = delta.Policies()
	}

	var script *delta.Scenario
	if *scenarioPath != "" {
		data, err := os.ReadFile(*scenarioPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "delta-sim:", err)
			os.Exit(2)
		}
		script, err = delta.ParseScenario(data, *cores, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "delta-sim:", err)
			os.Exit(2)
		}
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "delta-sim:", err)
		}
	}()

	// Build every simulator up front (setup is cheap and must see flag
	// errors before any run starts), fan the runs across the pool, then
	// print in the requested order.
	sims := make([]*delta.Simulator, len(policies))
	for i, p := range policies {
		sim, err := delta.New(delta.WithConfig(delta.Config{
			Cores:              *cores,
			Policy:             delta.PolicyKind(strings.TrimSpace(p)),
			WarmupInstructions: *warm,
			BudgetInstructions: *budget,
			Seed:               *seed,
			TimeCompression:    *compress,
			Check:              *check,
			FastForward:        *fastforward,
			Scenario:           script,
		}))
		if err != nil {
			fmt.Fprintln(os.Stderr, "delta-sim:", err)
			os.Exit(2)
		}
		if *mix != "" {
			err = sim.LoadMixE(*mix)
		} else {
			for c := 0; c < *cores && err == nil; c++ {
				err = sim.SetWorkloadE(c, delta.Workload{App: *app})
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "delta-sim:", err)
			os.Exit(2)
		}
		sims[i] = sim
	}
	results := make([]delta.Result, len(sims))
	experiments.ForEach(*parallel, len(sims), func(i int) {
		results[i] = sims[i].Run()
	})
	for i := range sims {
		report(strings.TrimSpace(policies[i]), *cores, results[i], sims[i])
		sims[i].Close()
	}

	// With a private run in the set, every other policy's slowdown vector
	// has a baseline: print the cross-policy fairness summary. Result
	// vectors align entry for entry because every simulator ran the same
	// workloads — and, with -scenario, the same event script.
	var privateIPC []float64
	for i, p := range policies {
		if strings.TrimSpace(p) == "private" {
			privateIPC = ipcs(results[i])
		}
	}
	if privateIPC != nil && len(policies) > 1 {
		t := metrics.NewTable("fairness (ANTT/STP/unfairness vs private, Jain over per-core IPC)",
			"policy", "antt", "stp", "unfairness", "jain")
		for i, p := range policies {
			v := ipcs(results[i])
			t.AddRowf(strings.TrimSpace(p),
				metrics.ANTT(v, privateIPC), metrics.STP(v, privateIPC),
				metrics.Unfairness(v, privateIPC), metrics.JainIndex(v))
		}
		fmt.Println(t.String())
	}
}

// ipcs extracts the per-core IPC vector in result order.
func ipcs(res delta.Result) []float64 {
	out := make([]float64, len(res.Cores))
	for i, c := range res.Cores {
		out[i] = c.IPC
	}
	return out
}

// report prints one policy's run.
func report(policy string, cores int, res delta.Result, sim *delta.Simulator) {
	t := metrics.NewTable(fmt.Sprintf("%s on %d cores", policy, cores),
		"core", "ipc", "llc-mpki", "mem-mpki", "local-hit%", "mlp")
	for _, c := range res.Cores {
		t.AddRowf(fmt.Sprint(c.Core), c.IPC, c.MPKI, c.MemMPKI, c.LocalHitFrac*100, c.MLP)
	}
	fmt.Println(t.String())
	fmt.Printf("geomean IPC: %.4f\n", res.GeoMeanIPC())
	fmt.Printf("fairness (Jain index): %.4f\n", metrics.JainIndex(ipcs(res)))
	fmt.Printf("control traffic: %.3f%% of NoC messages\n", res.ControlMessageFraction*100)
	fmt.Printf("invalidated lines: %d\n", res.InvalidatedLines)
	if d, ok := bankbw.Unwrap(sim.Policy()).(*core.Delta); ok {
		fmt.Printf("delta stats: %+v\n", d.Stats)
		for _, c := range res.Cores {
			fmt.Printf("core %2d allocation: %d ways\n", c.Core, d.TotalWays(c.Core))
		}
	}
}
