package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delta/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/driver_tables_sha256.txt")

// goldenScale is the fixed, very small scale whose driver tables are pinned
// by sha256. Fast-forward lets DELTA reconfigure within so short a window.
// Changing it invalidates testdata/driver_tables_sha256.txt.
func goldenScale() Scale {
	sc := QuickScale()
	sc.Warmup = 8_000
	sc.Budget = 6_000
	sc.FastForward = true
	sc.Workers = 2
	return sc
}

// goldenAblationScale pins the ablation study with a simulated warmup, long
// enough for the baseline to reconfigure once.
func goldenAblationScale() Scale {
	sc := goldenScale()
	sc.Warmup = 20_000
	sc.Budget = 30_000
	sc.FastForward = false
	return sc
}

// TestGoldenDriverTables renders every simulation-backed driver's table at
// goldenScale and compares each table's sha256 with
// testdata/driver_tables_sha256.txt (one "<driver> <hex digest>" per line).
// The drivers' structure may change freely; their rendered output may not.
// Regenerate with `go test -run TestGoldenDriverTables -update
// ./internal/experiments` only for an intended change of simulated behaviour.
func TestGoldenDriverTables(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every driver")
	}
	sc := goldenScale()
	st := NewSuite(sc, 16)
	var mixNames []string
	for _, m := range workloads.Mixes() {
		mixNames = append(mixNames, m.Name)
	}
	st.Prefetch(PaperPolicies, mixNames)

	tables := []struct{ name, text string }{
		{"fig5", Fig5(st).Table()},
		{"fig6", Fig6(st).Table()},
		{"perapp-w2", PerApp(st, "w2").Table()},
		{"fig12", Fig12(sc).Table()},
		{"fig13", Fig13(sc).Table()},
		{"ablations-w6", AblationTable(Ablations(goldenAblationScale(), "w6"), "w6")},
		{"churn-w2", Churn(sc, "w2", 16).Table()},
		{"matrix-w6", PolicyMatrix(sc, "w6", 16).Table()},
		{"overheads-w2", Overheads(sc, "w2").Table()},
	}
	var lines []string
	for _, tb := range tables {
		lines = append(lines, fmt.Sprintf("%s %x", tb.name, sha256.Sum256([]byte(tb.text))))
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "driver_tables_sha256.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		for _, tb := range tables {
			t.Logf("%s:\n%s", tb.name, tb.text)
		}
		t.Fatalf("driver tables changed:\ngot\n%swant\n%s", got, want)
	}
}
