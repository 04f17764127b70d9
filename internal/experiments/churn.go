package experiments

import (
	"fmt"

	"delta/internal/chip"
	"delta/internal/metrics"
	"delta/internal/policies"
	"delta/internal/scenario"
	"delta/internal/trace"
	"delta/internal/workloads"
)

// ChurnScenario is the campaign's scripted churn: a chip-wide phase storm,
// two departures, one arrival, a migration into a vacated tile, and a closing
// spike — every dynamic event kind, all within the first ~70 quanta so even
// the quick scale replays the full script. It is valid for any fully loaded
// chip with at least 8 tiles.
func ChurnScenario() *scenario.Scenario {
	return &scenario.Scenario{SchemaVersion: 1, Name: "churn", Events: []scenario.Event{
		{AtQuantum: 2, Kind: scenario.KindStorm, RatePercent: 200, DurationQuanta: 30},
		{AtQuantum: 8, Kind: scenario.KindDepart, Core: 3},
		{AtQuantum: 16, Kind: scenario.KindArrive, Core: 3, App: "omnetpp"},
		{AtQuantum: 32, Kind: scenario.KindDepart, Core: 5},
		{AtQuantum: 40, Kind: scenario.KindMigrate, From: 6, To: 5},
		{AtQuantum: 56, Kind: scenario.KindSpike, Core: 0, RatePercent: 50, DurationQuanta: 8},
	}}
}

// ChurnRun is one policy's outcome under the churn scenario.
type ChurnRun struct {
	Policy  string
	Results []chip.CoreResult
	GeoIPC  float64
	// Jain is Jain's fairness index over the per-core IPCs (baseline-free:
	// mid-scenario membership has no static private reference).
	Jain float64
	// Unfairness is the max/min slowdown ratio against the private run of
	// the same scenario — defined because every policy replays the identical
	// event script, so result vectors align entry for entry.
	Unfairness float64
}

// ChurnResult reproduces the dynamic-membership campaign: every policy runs
// the same mix under the same churn scenario, and the table reports raw
// performance next to both fairness metrics.
type ChurnResult struct {
	MixName  string
	Cores    int
	Scenario *scenario.Scenario
	Runs     []ChurnRun
}

// Churn runs the built-in churn scenario under every registered policy on
// one mix.
func Churn(s Scale, mixName string, cores int) ChurnResult {
	return ChurnWith(s, mixName, cores, ChurnScenario())
}

// ChurnWith is Churn with a caller-supplied scenario (delta-bench's
// -scenario flag). The scenario must be valid for a fully loaded chip.
func ChurnWith(s Scale, mixName string, cores int, sc *scenario.Scenario) ChurnResult {
	if err := sc.Validate(cores, nil); err != nil {
		panic(fmt.Sprintf("experiments: churn scenario invalid for %d cores: %v", cores, err))
	}
	mix := workloads.MixByName(mixName)
	names := policies.Names()
	runs := make([]MixRun, len(names))
	s.fanOut(len(names), func(i int) string { return "churn/" + names[i] }, func(i int, ps Scale) {
		attach := func(c *chip.Chip) {
			build := func(coreID int, app string) (trace.Generator, error) {
				return workloads.ByName(app).Spec.Build(workloads.CoreSeed(ps.Seed, coreID)), nil
			}
			c.SetBoundaryHook(scenario.NewExecutor(sc, c, build))
		}
		runs[i] = ps.simulate(ps.ChipConfig(cores), ps.NewPolicy(names[i]), mix.Generators(cores, ps.Seed), true, attach)
	})
	var privateIPC []float64
	for i, name := range names {
		if name == "private" {
			privateIPC = runs[i].IPCs()
		}
	}
	res := ChurnResult{MixName: mixName, Cores: cores, Scenario: sc}
	for i, name := range names {
		ipcs := runs[i].IPCs()
		res.Runs = append(res.Runs, ChurnRun{
			Policy:     name,
			Results:    runs[i].Results,
			GeoIPC:     metrics.GeoMean(ipcs),
			Jain:       metrics.JainIndex(ipcs),
			Unfairness: metrics.Unfairness(ipcs, privateIPC),
		})
	}
	return res
}

// Table renders the campaign as text.
func (r ChurnResult) Table() string {
	t := metrics.NewTable(
		fmt.Sprintf("Churn: %s under %s on %d cores (unfairness vs private)",
			r.MixName, r.Scenario.Summary(), r.Cores),
		"policy", "geomean-ipc", "jain", "unfairness")
	for _, run := range r.Runs {
		t.AddRowf(run.Policy, run.GeoIPC, run.Jain, run.Unfairness)
	}
	return t.String()
}
