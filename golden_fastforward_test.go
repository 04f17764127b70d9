package delta

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delta/internal/snapshot"
	"delta/internal/trace"
)

// goldenFastForwardSim builds a 16-core fast-forwarded simulator at the
// default warmup, large enough that every tile's prefill is capped by its
// private-plus-LLC-share budget rather than by the warmup's footprint.
func goldenFastForwardSim(t *testing.T, opts []Option) *Simulator {
	t.Helper()
	sim, err := New(append([]Option{WithCores(16), WithWarmup(400_000), WithBudget(100_000),
		WithSeed(1), WithFastForward(true)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// goldenFastForwardQuanta is how many quanta run after FastForward before
// the state is digested: enough for the prefilled lines to be hit, evicted
// and re-placed by the policy, few enough to keep the test quick.
const goldenFastForwardQuanta = 3

// stackDistMixGen is tile i's generator in the custom fast-forward mix:
// region, stream and stack-distance components in flat and nested mixtures,
// a bare stack-distance generator and an idle tile. Stack-distance
// generators are run first so their hot-line lists are not empty; four
// tiles carry one.
func stackDistMixGen(i int) trace.Generator {
	const gap = 1 << 30
	seed := uint64(1000 + i)
	stackDist := func(base uint64) *trace.StackDistGen {
		g := trace.NewStackDistGen(base, []float64{0.3, 0.15, 0.1, 0.05, 0.05, 0.05, 0.05}, seed)
		for k := 0; k < 20_000; k++ {
			g.Next()
		}
		return g
	}
	shape := func(g trace.Generator) trace.Generator {
		return trace.NewShaper(g, trace.ShaperConfig{MemFraction: 0.3, WriteFraction: 0.2, Burst: 2, Seed: seed})
	}
	region := func(base uint64, kb int) trace.Generator { return trace.NewRegionGen(base, trace.Lines(kb), seed^base) }
	stream := func(base uint64, kb int) trace.Generator { return trace.NewStreamGen(base, trace.Lines(kb)) }
	switch {
	case i == 0:
		// Flat mixture of all three primitive models.
		return shape(trace.NewMixtureGen(seed, trace.Component{Gen: region(0, 64), Weight: 0.5},
			trace.Component{Gen: stream(gap, 4096), Weight: 0.2},
			trace.Component{Gen: stackDist(2 * gap), Weight: 0.3}))
	case i == 1:
		// Nested mixture: an inner mixture as one component of the outer.
		inner := trace.NewMixtureGen(seed^1, trace.Component{Gen: region(0, 256), Weight: 0.6},
			trace.Component{Gen: stackDist(gap), Weight: 0.4})
		return shape(trace.NewMixtureGen(seed, trace.Component{Gen: inner, Weight: 0.7},
			trace.Component{Gen: stream(2*gap, 2048), Weight: 0.3}))
	case i == 2 || i == 3:
		return shape(stackDist(0))
	case i == 4:
		return trace.IdleGen{}
	case i%2 == 0:
		return shape(trace.NewMixtureGen(seed, trace.Component{Gen: region(0, 32), Weight: 0.7},
			trace.Component{Gen: stream(gap, 1024), Weight: 0.3}))
	default:
		return shape(stream(0, 8192))
	}
}

// customStateDigest is the encoded state of a simulator whose generators
// cannot be snapshotted: the fingerprint plus every tile's caches and UMON,
// in snapshot form.
func customStateDigest(t *testing.T, sim *Simulator) []byte {
	t.Helper()
	type tileState struct {
		L1, L2, LLC snapshot.Cache
		Mon         snapshot.Umon
	}
	st := struct {
		Fingerprint string
		Tiles       []tileState
	}{Fingerprint: sim.Fingerprint()}
	for _, tl := range sim.chip.Tiles {
		st.Tiles = append(st.Tiles, tileState{L1: tl.L1.Snapshot(), L2: tl.L2.Snapshot(),
			LLC: tl.LLC.Snapshot(), Mon: tl.Mon.Snapshot()})
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenFastForward pins, byte for byte, the state analytical
// fast-forward leaves behind a few quanta into the run (TestFastForwardEquivalence
// only bounds its divergence from a simulated warmup). Every goldenPolicyCases
// entry runs mix w2 at 16 cores and is pinned by its encoded snapshot; the
// custom stack-distance mix, which cannot be snapshotted, is pinned by its
// fingerprint and cache/UMON contents. Digests live in
// testdata/golden_fastforward_sha256.txt; regenerate with
// `go test -run TestGoldenFastForward -update .` only for an intended change
// of fast-forward behaviour.
func TestGoldenFastForward(t *testing.T) {
	path := filepath.Join("testdata", "golden_fastforward_sha256.txt")
	var lines []string
	for _, tc := range goldenPolicyCases {
		sim := goldenFastForwardSim(t, tc.opts)
		sim.LoadMix("w2")
		runToBoundary(t, sim, goldenFastForwardQuanta)
		snap, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("w2/%s %x", tc.name, sha256.Sum256(data)))
		sim.Close()
	}
	sim := goldenFastForwardSim(t, []Option{WithPolicy(PolicyDelta)})
	for i := 0; i < 16; i++ {
		sim.SetWorkload(i, Workload{Generator: stackDistMixGen(i)})
	}
	runToBoundary(t, sim, goldenFastForwardQuanta)
	lines = append(lines, fmt.Sprintf("stackdist/delta %x", sha256.Sum256(customStateDigest(t, sim))))
	sim.Close()

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
		t.Errorf("fast-forward state digests drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
