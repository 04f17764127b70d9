package delta

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenPolicyCases names every registered built-in policy plus the
// bandwidth regulator over DELTA, so each policy's checkpoint payload (and
// the nested one) is pinned.
var goldenPolicyCases = []struct {
	name string
	opts []Option
}{
	{"snuca", []Option{WithPolicy(PolicySnuca)}},
	{"private", []Option{WithPolicy(PolicyPrivate)}},
	{"delta", []Option{WithPolicy(PolicyDelta)}},
	{"ideal", []Option{WithPolicy(PolicyIdeal)}},
	{"lfoc", []Option{WithPolicy(PolicyLFOC)}},
	{"carma", []Option{WithPolicy(PolicyCARMA)}},
	{"bankbw", []Option{WithPolicy(PolicyBankBW)}},
	{"bankbw/delta", []Option{WithPolicy(PolicyBankBW),
		WithPolicyParams(PolicyBankBW, map[string]string{"Base": "delta"})}},
}

// goldenPolicySnapshot encodes a short 4-core checkpoint under the given
// policy options: every core loaded, intervals compressed so each policy
// has reconfigured (DELTA has challenged, CARMA traded a lot) by the
// capture boundary.
func goldenPolicySnapshot(t *testing.T, opts []Option) []byte {
	t.Helper()
	sim, err := New(append([]Option{WithCores(4), WithWarmup(500), WithBudget(400000),
		WithSeed(1), WithTimeCompression(1000)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range []string{"mcf", "libquantum", "omnetpp", "sphinx3"} {
		if err := sim.SetWorkloadE(i, Workload{App: app}); err != nil {
			t.Fatal(err)
		}
	}
	runToBoundary(t, sim, 300)
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenPolicySnapshots pins every policy's checkpoint bytes by sha256
// (testdata/golden_policy_sha256.txt, one "<case> <hex digest>" per line).
// TestGoldenSnapshot pins only S-NUCA's bytes, and the codec differential
// test compares two encoders that share the policy marshaller, so this is
// what catches a change to a policy payload's wire form. Regenerate with
// `go test -run TestGoldenPolicySnapshots -update .` only for an intended
// format change (which also bumps snapshot.Version).
func TestGoldenPolicySnapshots(t *testing.T) {
	path := filepath.Join("testdata", "golden_policy_sha256.txt")
	var lines []string
	for _, tc := range goldenPolicyCases {
		lines = append(lines, fmt.Sprintf("%s %x", tc.name, sha256.Sum256(goldenPolicySnapshot(t, tc.opts))))
	}
	got := strings.Join(lines, "\n") + "\n"
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
		t.Errorf("policy checkpoint digests drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
