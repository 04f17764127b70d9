package delta

import (
	"testing"

	"delta/internal/core"
)

// allPolicyKinds lists every registered policy as a PolicyKind, so the
// facade's contract tests (construction, checked runs, snapshot equivalence,
// scenario chaos) automatically cover new registrations.
func allPolicyKinds() []PolicyKind {
	var out []PolicyKind
	for _, name := range Policies() {
		out = append(out, PolicyKind(name))
	}
	return out
}

// newSim builds a simulator from cfg, failing the test on error.
func newSim(tb testing.TB, cfg Config) *Simulator {
	tb.Helper()
	sim, err := New(WithConfig(cfg))
	if err != nil {
		tb.Fatal(err)
	}
	return sim
}

func TestFacadeQuickRun(t *testing.T) {
	sim := newSim(t, Config{
		Cores:              16,
		Policy:             PolicyDelta,
		WarmupInstructions: 60_000,
		BudgetInstructions: 50_000,
	})
	sim.LoadMix("w5")
	res := sim.Run()
	if len(res.Cores) != 16 {
		t.Fatalf("results for %d cores", len(res.Cores))
	}
	if g := res.GeoMeanIPC(); g <= 0 || g > 4.1 {
		t.Fatalf("geomean IPC %v", g)
	}
	if _, ok := sim.Policy().(*core.Delta); !ok {
		t.Fatalf("delta policy not exposed: %T", sim.Policy())
	}
}

func TestFacadePoliciesConstruct(t *testing.T) {
	for _, p := range allPolicyKinds() {
		sim := newSim(t, Config{Cores: 16, Policy: p,
			WarmupInstructions: 10_000, BudgetInstructions: 10_000})
		sim.SetWorkload(0, Workload{App: "omnetpp"})
		res := sim.Run()
		if res.Policy != p {
			t.Fatalf("policy %v reported %v", p, res.Policy)
		}
	}
}

func TestFacadeCustomWorkloadByShortCode(t *testing.T) {
	sim := newSim(t, Config{Cores: 16,
		WarmupInstructions: 10_000, BudgetInstructions: 10_000})
	sim.SetWorkload(3, Workload{App: "xa"})
	res := sim.Run()
	if len(res.Cores) != 1 || res.Cores[0].Core != 3 {
		t.Fatalf("unexpected results %+v", res.Cores)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := LookupApp("nosuchapp"); err == nil {
		t.Fatal("expected lookup error")
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	if _, err := New(WithPolicy("bogus")); err == nil {
		t.Fatal("unknown policy accepted")
	}
	mustPanic("run without workloads", func() {
		newSim(t, Config{Cores: 16}).Run()
	})
	mustPanic("double run", func() {
		s := newSim(t, Config{Cores: 16,
			WarmupInstructions: 5_000, BudgetInstructions: 5_000})
		s.SetWorkload(0, Workload{App: "povray"})
		s.Run()
		s.Run()
	})
	mustPanic("empty workload", func() {
		newSim(t, Config{Cores: 16}).SetWorkload(0, Workload{})
	})
}

func TestFacadeInventory(t *testing.T) {
	if len(Apps()) != 29 {
		t.Fatalf("%d apps", len(Apps()))
	}
	if len(MixNames()) != 15 {
		t.Fatalf("%d mixes", len(MixNames()))
	}
}

func TestFacade64Cores(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core run is slow")
	}
	sim := newSim(t, Config{
		Cores:              64,
		Policy:             PolicyDelta,
		WarmupInstructions: 40_000,
		BudgetInstructions: 30_000,
	})
	sim.LoadMix("w3")
	res := sim.Run()
	if len(res.Cores) != 64 {
		t.Fatalf("results for %d cores", len(res.Cores))
	}
	if g := res.GeoMeanIPC(); g <= 0 {
		t.Fatalf("geomean %v", g)
	}
}

func TestFacadeRejectsNonPow2Cores(t *testing.T) {
	if _, err := New(WithCores(36)); err == nil {
		t.Fatal("36 cores accepted")
	}
}

func TestFacadeCheckedRunAllPolicies(t *testing.T) {
	// Every registered policy under the invariant harness end to end through
	// the public API: a violation anywhere in the enforcement path panics the
	// run.
	for _, p := range allPolicyKinds() {
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			sim := newSim(t, Config{Cores: 16, Policy: p, Check: true,
				WarmupInstructions: 10_000, BudgetInstructions: 20_000})
			sim.LoadMix("w2")
			if res := sim.Run(); len(res.Cores) != 16 {
				t.Fatalf("results for %d cores", len(res.Cores))
			}
		})
	}
}

// TestFacadeColumnarRecorder runs a simulation into a columnar segment sink
// through the facade's WithRecorders option and reads the series back.
func TestFacadeColumnarRecorder(t *testing.T) {
	dir := t.TempDir()
	cw, err := NewColumnarRecorder(ColumnarConfig{Dir: dir, Job: "facade-test"})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemoryRecorder(0)
	sim, err := New(
		WithCores(16),
		WithPolicy(PolicyDelta),
		WithWarmup(10_000),
		WithBudget(10_000),
		WithRecorders(mem, cw),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.LoadMixE("w2"); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if len(mem.Samples()) == 0 {
		t.Fatal("WithRecorders dropped the memory recorder")
	}
	d, err := OpenColumnarDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	if err := d.Range(ColumnarQuery{}, func(ColumnarRow) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if rows != len(mem.Samples()) {
		t.Fatalf("columnar raw rows %d != memory samples %d", rows, len(mem.Samples()))
	}
	if d.Job() != "facade-test" {
		t.Fatalf("job %q", d.Job())
	}
}
