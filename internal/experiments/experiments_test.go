package experiments

import (
	"strings"
	"testing"

	"delta/internal/policies"
	"delta/internal/workloads"
)

// tinyScale keeps driver tests fast; shape assertions here are loose (the
// full-scale shape checks live in EXPERIMENTS.md's delta-bench runs).
func tinyScale() Scale {
	sc := QuickScale()
	sc.Warmup = 50_000
	sc.Budget = 40_000
	return sc
}

func TestRunMixProducesResults(t *testing.T) {
	sc := tinyScale()
	run := sc.RunMix("delta", workloads.MixByName("w6"), 16)
	if len(run.Results) != 16 {
		t.Fatalf("%d results", len(run.Results))
	}
	if len(run.Ways) != 16 {
		t.Fatalf("delta introspection: %d per-core ways, want 16", len(run.Ways))
	}
	for _, r := range run.Results {
		if r.IPC <= 0 {
			t.Fatalf("core %d IPC %v", r.Core, r.IPC)
		}
	}
}

func TestSuiteCaches(t *testing.T) {
	st := NewSuite(tinyScale(), 16)
	a := st.Run("snuca", "w5")
	b := st.Run("snuca", "w5")
	if &a.Results[0] == nil || a.Results[0].Cycles != b.Results[0].Cycles {
		t.Fatal("suite did not cache the run")
	}
}

func TestPolicyFactory(t *testing.T) {
	sc := tinyScale()
	for _, name := range append(policies.Names(), "ideal-slow") {
		if p := sc.NewPolicy(name); p == nil {
			t.Fatalf("nil policy %q", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown policy")
		}
	}()
	sc.NewPolicy("bogus")
}

func TestFig5SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-mix sweep is slow")
	}
	// Run a reduced Fig. 5 over three mixes by hand (the driver runs all
	// 15, which belongs in delta-bench).
	st := NewSuite(tinyScale(), 16)
	for _, mix := range []string{"w2", "w6"} {
		base := st.Run("snuca", mix)
		d := st.Run("delta", mix)
		if len(base.Results) != len(d.Results) {
			t.Fatal("result length mismatch")
		}
	}
}

func TestPerAppShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	st := NewSuite(tinyScale(), 16)
	res := PerApp(st, "w2")
	if len(res.Apps) != 16 {
		t.Fatalf("%d apps", len(res.Apps))
	}
	foundXa := false
	for i, app := range res.Apps {
		if res.IdealVsDelta[i] <= 0 || res.PrivVsDelta[i] <= 0 {
			t.Fatalf("non-positive normalization for %s", app)
		}
		if app == "xalancbmk" {
			foundXa = true
		}
	}
	if !foundXa {
		t.Fatal("w2 must include xalancbmk")
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "Fig. 7") {
		t.Fatalf("table mislabeled:\n%s", tbl)
	}
}

func TestTableVIShape(t *testing.T) {
	res := TableVI(16, 1)
	if len(res.Cores) != 4 || res.Cores[0] != 2 || res.Cores[3] != 16 {
		t.Fatalf("cores %v", res.Cores)
	}
	// Lookahead cost must grow steeply; peekahead must stay well below
	// lookahead at 16 cores.
	if res.Lookahead[3] <= res.Lookahead[0] {
		t.Fatal("lookahead cost did not grow")
	}
	if res.Peekahead[3] >= res.Lookahead[3] {
		t.Fatalf("peekahead %v not cheaper than lookahead %v",
			res.Peekahead[3], res.Lookahead[3])
	}
	if !strings.Contains(res.Table(), "Table VI") {
		t.Fatal("table mislabeled")
	}
}

func TestOverheadsDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := Overheads(tinyScale(), "w6")
	if res.DataMsgs == 0 {
		t.Fatal("no data traffic recorded")
	}
	if res.ControlPercent < 0 || res.ControlPercent > 50 {
		t.Fatalf("control share %v%%", res.ControlPercent)
	}
	if !strings.Contains(res.Table(), "control share") {
		t.Fatal("table missing control share")
	}
}

func TestFig12SingleApp(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Full Fig12 runs 14 apps x 3 policies; exercise the machinery on a
	// stub suite by temporarily checking one profile through the internal
	// helpers instead.
	sc := tinyScale()
	res := Fig12(sc)
	if len(res.Rows) != 14 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.SnucaCycles == 0 || r.PrivateCycles == 0 || r.DeltaSimCycles == 0 {
			t.Fatalf("%s has zero cycles", r.App)
		}
		if r.PagePrivate < 0 || r.PagePrivate > 100 {
			t.Fatalf("%s page privacy %v", r.App, r.PagePrivate)
		}
	}
	// water.nsq (almost fully private) must behave near the private
	// baseline; lu.cont (fully shared) near S-NUCA.
	for _, r := range res.Rows {
		switch r.App {
		case "water.nsq":
			if r.PagePrivate < 80 {
				t.Fatalf("water.nsq measured %v%% private", r.PagePrivate)
			}
		case "lu.cont":
			if r.PagePrivate > 20 {
				t.Fatalf("lu.cont measured %v%% private", r.PagePrivate)
			}
		}
	}
}

func TestScaleFor64(t *testing.T) {
	sc := DefaultScale()
	s64 := sc.For64()
	if s64.Budget >= sc.Budget || s64.Warmup >= sc.Warmup {
		t.Fatal("For64 did not reduce windows")
	}
}

func TestChipConfigReflectsScale(t *testing.T) {
	sc := DefaultScale()
	sc.Seed = 9
	sc.Check = true
	cfg := sc.ChipConfig(16)
	if cfg.Seed != 9 || !cfg.Check || cfg.UmonSampleEvery != umonSampleEvery || cfg.Cores != 16 {
		t.Fatalf("config %+v", cfg)
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := Ablations(tinyScale(), "w6")
	if len(res) != len(AblationVariants()) {
		t.Fatalf("%d results", len(res))
	}
	if res[0].Variant != "baseline" || res[0].VsBaseline != 1 {
		t.Fatalf("baseline row %+v", res[0])
	}
	for _, r := range res {
		if r.GeoIPC <= 0 {
			t.Fatalf("%s: non-positive geomean", r.Variant)
		}
	}
	tbl := AblationTable(res, "w6")
	if !strings.Contains(tbl, "no-distance-penalty") {
		t.Fatal("table missing variants")
	}
}

func TestFig13Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := tinyScale()
	res := Fig13(sc)
	if len(res.MixNames) != len(Fig13Mixes) {
		t.Fatalf("%d mixes", len(res.MixNames))
	}
	for i := range res.MixNames {
		if res.Fast[i] <= 0 || res.Slow[i] <= 0 {
			t.Fatalf("non-positive normalization at %d", i)
		}
	}
	if !strings.Contains(res.Table(), "Fig. 13") {
		t.Fatal("table mislabeled")
	}
}
