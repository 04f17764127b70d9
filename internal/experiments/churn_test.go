package experiments

import (
	"strings"
	"testing"

	"delta/internal/policies"
)

func TestChurnScenarioValid(t *testing.T) {
	for _, cores := range []int{16, 64} {
		if err := ChurnScenario().Validate(cores, nil); err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
	}
}

func TestChurnCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("churn campaign runs every registered policy")
	}
	sc := tinyScale()
	sc.Check = true
	sc.Workers = 4
	res := Churn(sc, "w6", 16)
	if len(res.Runs) != len(policies.Names()) {
		t.Fatalf("%d runs, want %d", len(res.Runs), len(policies.Names()))
	}
	// Two departures latch extra results: 16 initial − 2 departed + 1
	// arrival = 15 live, 17 total; identical membership for every policy.
	for _, run := range res.Runs {
		if len(run.Results) != 17 {
			t.Fatalf("%s: %d results, want 17", run.Policy, len(run.Results))
		}
		if run.GeoIPC <= 0 {
			t.Fatalf("%s: geomean IPC %v", run.Policy, run.GeoIPC)
		}
		if run.Jain <= 0 || run.Jain > 1 {
			t.Fatalf("%s: Jain index %v out of (0,1]", run.Policy, run.Jain)
		}
		if run.Unfairness < 1 {
			t.Fatalf("%s: unfairness %v < 1", run.Policy, run.Unfairness)
		}
		if run.Policy == "private" && run.Unfairness != 1 {
			t.Fatalf("private unfairness vs itself = %v, want exactly 1", run.Unfairness)
		}
	}
	table := res.Table()
	for _, want := range []string{"Churn", "jain", "unfairness", "private"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
