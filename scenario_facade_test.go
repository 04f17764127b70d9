package delta

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// testScenario exercises every event kind: a departure frees tile 3 for an
// arrival, a chip-wide storm spans quanta 4..6, tile 5's workload departs and
// tile 6's thread migrates onto the vacated tile, and a spike slows core 0.
// The third quantum boundary falls between the arrival and the departure,
// inside the storm window — the snapshot point the restore matrix uses.
func testScenario() *Scenario {
	return &Scenario{SchemaVersion: 1, Events: []ScenarioEvent{
		{AtQuantum: 1, Kind: ScenarioDepart, Core: 3},
		{AtQuantum: 2, Kind: ScenarioArrive, Core: 3, App: "mcf"},
		{AtQuantum: 3, Kind: ScenarioStorm, RatePercent: 200, DurationQuanta: 3},
		{AtQuantum: 4, Kind: ScenarioDepart, Core: 5},
		{AtQuantum: 5, Kind: ScenarioMigrate, From: 6, To: 5},
		{AtQuantum: 6, Kind: ScenarioSpike, Core: 0, RatePercent: 50, DurationQuanta: 2},
	}}
}

func newScenarioSim(t *testing.T, pol PolicyKind, opts ...Option) *Simulator {
	t.Helper()
	sim := newTestSim(t, pol, append([]Option{
		WithScenario(testScenario()), WithCheck(true),
	}, opts...)...)
	sim.LoadMix("w1")
	return sim
}

// TestScenarioRunDeterministic: same seed, same scenario → byte-identical
// fingerprints, with the full invariant sweep on.
func TestScenarioRunDeterministic(t *testing.T) {
	run := func() string {
		sim := newScenarioSim(t, PolicyDelta)
		if _, err := sim.RunCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		return sim.Fingerprint()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("scenario runs diverged\n got %s\nwant %s", a, b)
	}
}

// TestScenarioResultsShape: the departed workload's measurement is latched
// and reported alongside the live cores, and the migration leaves tile 6
// empty (its thread reports from tile 5).
func TestScenarioResultsShape(t *testing.T) {
	sim := newScenarioSim(t, PolicyPrivate)
	res, err := sim.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 16 initial − tile 3's first occupant departed (1 latched) − tile 5's
	// occupant departed (1 latched) + 1 arrival; the migration moves but
	// does not add or remove. 15 live + 2 departed = 17 results.
	if len(res.Cores) != 17 {
		t.Fatalf("%d results, want 17", len(res.Cores))
	}
	if res.Cores[0].Core != 3 || res.Cores[1].Core != 5 {
		t.Errorf("departed results first: got cores %d,%d, want 3,5",
			res.Cores[0].Core, res.Cores[1].Core)
	}
	seen := map[int]int{}
	for _, c := range res.Cores[2:] {
		seen[c.Core]++
	}
	if seen[6] != 0 {
		t.Error("tile 6 reported a live result after migrating away")
	}
	if seen[5] != 1 || seen[3] != 1 {
		t.Errorf("tiles 5 and 3 should each report one live result, got %v", seen)
	}
}

// TestScenarioChangesContentAddress: the scenario folds into CanonicalJSON —
// two configurations differing only in scenario must produce different cache
// keys, and a nil scenario must serialize exactly as before the field
// existed (stable content addresses for all existing configurations).
func TestScenarioChangesContentAddress(t *testing.T) {
	base := Config{Cores: 16, Policy: PolicyDelta}
	withSc := base
	withSc.Scenario = testScenario()
	a, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := withSc.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("scenario did not change the canonical configuration")
	}
	if strings.Contains(string(a), "Scenario") {
		t.Errorf("nil scenario leaks into CanonicalJSON: %s", a)
	}
	other := withSc
	other.Scenario = &Scenario{SchemaVersion: 1, Events: []ScenarioEvent{
		{AtQuantum: 9, Kind: ScenarioDepart, Core: 1},
	}}
	c, err := other.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b, c) {
		t.Error("two different scenarios share a canonical configuration")
	}
	// Round trip: the scenario survives CanonicalJSON → config (the path
	// Restore and the service's resume-by-address take).
	cfg, err := configFromCanonicalJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scenario == nil || len(cfg.Scenario.Events) != len(withSc.Scenario.Events) {
		t.Errorf("scenario lost in round trip: %+v", cfg.Scenario)
	}
}

// TestScenarioValidatedAtRun: a scenario that conflicts with the actual
// initial occupancy fails the run with a descriptive error instead of
// panicking mid-simulation.
func TestScenarioValidatedAtRun(t *testing.T) {
	sim := newTestSim(t, PolicyDelta, WithScenario(&Scenario{
		SchemaVersion: 1,
		Events: []ScenarioEvent{
			{AtQuantum: 1, Kind: ScenarioArrive, Core: 0, App: "mcf"},
		},
	}))
	sim.LoadMix("w1") // every tile occupied: the arrival cannot land
	if _, err := sim.RunCtx(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "already occupied") {
		t.Fatalf("want occupancy validation error, got %v", err)
	}
}

// TestScenarioSnapshotRestoreEquivalence is the dynamic analogue of
// TestSnapshotRestoreEquivalence: for every policy, run-to-completion equals
// run→snapshot→restore→run bit-identically when the checkpoint lands between
// an arrival and a departure (and inside a storm window), with the invariant
// sweep on end to end.
func TestScenarioSnapshotRestoreEquivalence(t *testing.T) {
	// Boundary 3 lands after the arrival, before the departure; boundary 6
	// lands after the migration (a restore must then rebuild tile 5's
	// generator with tile 6's seed — its structure travelled with the
	// thread) while the spike window is open.
	checkRestoreEveryPolicy(t, restoreCase{
		mix:         "w1",
		opts:        []Option{WithScenario(testScenario()), WithCheck(true)},
		boundaries:  []int{3, 6},
		checkResume: true,
	})
}

// TestScenarioChaosFuzz: random valid scenarios against the full invariant
// harness, one seed per policy (the scenario package sweeps more seeds at
// the chip level; this exercises the facade path end to end).
func TestScenarioChaosFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos fuzz is slow")
	}
	for _, pol := range allPolicyKinds() {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			t.Parallel()
			sc := ChaosScenario(uint64(len(pol)), 16, 12, 8)
			sim := newTestSim(t, pol, WithScenario(sc), WithCheck(true))
			sim.LoadMix("w3")
			if _, err := sim.RunCtx(context.Background()); err != nil {
				t.Fatalf("chaos scenario %s: %v", sc.Summary(), err)
			}
		})
	}
}
