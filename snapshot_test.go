package delta

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"delta/internal/server/api"
	"delta/internal/snapshot"
	"delta/internal/trace"
)

// runToBoundary runs sim until the k-th quantum boundary, then cancels; the
// chip rests at an exact boundary when RunCtx returns.
func runToBoundary(t testing.TB, sim *Simulator, k int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	sim.chip.SetCheckpoint(1, func(uint64) {
		n++
		if n == k {
			cancel()
		}
	})
	if _, err := sim.RunCtx(ctx); err == nil {
		t.Fatalf("run finished before boundary %d; shrink the budget", k)
	}
}

func newTestSim(t *testing.T, pol PolicyKind, opts ...Option) *Simulator {
	t.Helper()
	// Sized so the restore-equivalence rows (every registered policy, each
	// one reference run plus one restored run per boundary) stay tractable
	// under -race on a 1-CPU host; a 1000-cycle quantum still gives well
	// over 6 boundaries per run.
	sim, err := New(append([]Option{
		WithCores(16), WithPolicy(pol), WithWarmup(1000), WithBudget(16000), WithSeed(7),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// restoreCase is one row of the restore-equivalence harness: a newTestSim
// configuration running mix, the quantum boundaries to checkpoint at, and
// whether the resumed runs carry the invariant harness (the reference run
// carries it when opts include WithCheck(true)).
type restoreCase struct {
	pol         PolicyKind
	mix         string
	opts        []Option
	boundaries  []int
	checkResume bool
	// mayEnd tolerates a run that finishes before a boundary, which then
	// has nothing to resume; otherwise that fails the row.
	mayEnd bool
}

// checkRestoreEquivalence is the correctness bar of the snapshot subsystem:
// it runs c to completion once, encoding a checkpoint at each listed quantum
// boundary on the way, then resumes every checkpoint through DecodeSnapshot
// → Restore → RunCtx (one subtest per boundary, named q<k>). Each resumed
// run must reproduce the uninterrupted run bit for bit: its Fingerprint,
// its JSON results and its FastForward setting.
func checkRestoreEquivalence(t *testing.T, c restoreCase) {
	t.Helper()
	ref := newTestSim(t, c.pol, c.opts...)
	ref.LoadMix(c.mix)
	captures := map[int][]byte{}
	n := 0
	ref.chip.SetCheckpoint(1, func(uint64) {
		n++
		if !slices.Contains(c.boundaries, n) {
			return
		}
		snap, err := ref.Snapshot()
		if err != nil {
			t.Fatalf("boundary %d: snapshot: %v", n, err)
		}
		if captures[n], err = snap.Encode(); err != nil {
			t.Fatalf("boundary %d: encode: %v", n, err)
		}
	})
	if _, err := ref.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	wantRes, _ := json.Marshal(ref.chip.Results())

	for _, k := range c.boundaries {
		data, ok := captures[k]
		if !ok {
			if c.mayEnd {
				continue
			}
			t.Fatalf("run finished before boundary %d; shrink the budget", k)
		}
		t.Run(fmt.Sprintf("q%d", k), func(t *testing.T) {
			decoded, err := DecodeSnapshot(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			b, err := Restore(decoded, WithCheck(c.checkResume))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if b.cfg.FastForward != ref.cfg.FastForward {
				t.Fatal("FastForward flag lost across encode/decode")
			}
			if _, err := b.RunCtx(context.Background()); err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got := b.Fingerprint(); got != want {
				t.Errorf("fingerprint diverged\n got %s\nwant %s", got, want)
			}
			gotRes, _ := json.Marshal(b.chip.Results())
			if !bytes.Equal(gotRes, wantRes) {
				t.Errorf("results diverged\n got %s\nwant %s", gotRes, wantRes)
			}
		})
	}
}

// checkRestoreEveryPolicy runs row under every registered policy, one
// parallel subtest per policy.
func checkRestoreEveryPolicy(t *testing.T, row restoreCase) {
	for _, pol := range allPolicyKinds() {
		t.Run(string(pol), func(t *testing.T) {
			t.Parallel()
			c := row
			c.pol = pol
			checkRestoreEquivalence(t, c)
		})
	}
}

// TestSnapshotRestoreEquivalence: for every policy on a static mix,
// run-to-completion equals run→snapshot→restore→run bit-identically at more
// than one interruption point, with the restored run checked.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	checkRestoreEveryPolicy(t, restoreCase{mix: "w1", boundaries: []int{1, 4}, checkResume: true})
}

// TestRestoreSnapshotRoundTrip: restoring a checkpoint and snapshotting the
// restored simulator at once must give back the checkpoint's bytes, for
// every policy on w1 at an early, a cold-cache and a late boundary. Where
// the resumed run's fingerprint cannot see restored state that has not yet
// influenced the run (DELTA's pain estimates, its inter-bank ticker, UMON
// stacks at a cold start), a restore that drops or alters such state fails
// here.
func TestRestoreSnapshotRoundTrip(t *testing.T) {
	boundaries := []int{1, 4, 100}
	for _, pol := range allPolicyKinds() {
		t.Run(string(pol), func(t *testing.T) {
			t.Parallel()
			sim := newTestSim(t, pol)
			sim.LoadMix("w1")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			captures := map[int][]byte{}
			n := 0
			sim.chip.SetCheckpoint(1, func(uint64) {
				n++
				if !slices.Contains(boundaries, n) {
					return
				}
				snap, err := sim.Snapshot()
				if err != nil {
					t.Fatalf("boundary %d: snapshot: %v", n, err)
				}
				if captures[n], err = snap.Encode(); err != nil {
					t.Fatalf("boundary %d: encode: %v", n, err)
				}
				if n == boundaries[len(boundaries)-1] {
					cancel()
				}
			})
			if _, err := sim.RunCtx(ctx); err == nil {
				t.Fatalf("run finished before boundary %d; grow the budget", boundaries[len(boundaries)-1])
			}
			for _, k := range boundaries {
				decoded, err := DecodeSnapshot(captures[k])
				if err != nil {
					t.Fatalf("q%d: decode: %v", k, err)
				}
				restored, err := Restore(decoded)
				if err != nil {
					t.Fatalf("q%d: restore: %v", k, err)
				}
				snap, err := restored.Snapshot()
				if err != nil {
					t.Fatalf("q%d: snapshot of the restored simulator: %v", k, err)
				}
				again, err := snap.Encode()
				if err != nil {
					t.Fatalf("q%d: encode: %v", k, err)
				}
				if !bytes.Equal(again, captures[k]) {
					t.Errorf("q%d: restore then snapshot changed the checkpoint (%d bytes, was %d)", k, len(again), len(captures[k]))
				}
				restored.Close()
			}
		})
	}
}

// TestSnapshotEncodeDeterministic: the same state must always serialize to
// the same bytes (the service compares cached results and checkpoints
// byte-for-byte).
func TestSnapshotEncodeDeterministic(t *testing.T) {
	sim := newTestSim(t, PolicyDelta)
	sim.LoadMix("w2")
	runToBoundary(t, sim, 2)
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two Encode calls of one snapshot differ")
	}
	// And a decode→re-encode round trip is stable too.
	decoded, err := DecodeSnapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := decoded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("decode→encode round trip changed the bytes")
	}
}

// TestSnapshotVersionSkew: snapshots from another schema version are rejected
// with the typed sentinel.
func TestSnapshotVersionSkew(t *testing.T) {
	sim := newTestSim(t, PolicySnuca)
	sim.SetWorkload(0, Workload{App: "mcf"})
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	skewed := bytes.Replace(data, []byte(`"schema_version":1`), []byte(`"schema_version":99`), 1)
	if bytes.Equal(skewed, data) {
		t.Fatal("version field not found in encoding")
	}
	if _, err := DecodeSnapshot(skewed); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("skewed decode error = %v, want ErrSnapshotVersion", err)
	}
}

// TestSnapshotEveryAutoCheckpoint: WithSnapshotEvery publishes checkpoints
// through LastSnapshot, and a canceled run's final auto-checkpoint resumes to
// the reference result.
func TestSnapshotEveryAutoCheckpoint(t *testing.T) {
	ref := newTestSim(t, PolicyDelta)
	ref.LoadMix("w1")
	if _, err := ref.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()

	sim := newTestSim(t, PolicyDelta, WithSnapshotEvery(2))
	sim.LoadMix("w1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunCtx(ctx); err == nil {
		t.Fatal("pre-canceled run reported success")
	}
	snap := sim.LastSnapshot()
	if snap == nil {
		t.Fatal("no auto-checkpoint after canceled run")
	}
	resumed, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Fingerprint(); got != want {
		t.Fatalf("resumed fingerprint diverged\n got %s\nwant %s", got, want)
	}
}

// TestSnapshotCustomGenerator: workloads built from caller-supplied
// generators cannot be rebuilt by Restore and must be refused up front.
func TestSnapshotCustomGenerator(t *testing.T) {
	sim := newTestSim(t, PolicySnuca)
	sim.SetWorkload(0, Workload{Generator: trace.NewStreamGen(0, 4096)})
	if _, err := sim.Snapshot(); !errors.Is(err, ErrNotSnapshotable) {
		t.Fatalf("custom-generator snapshot error = %v, want ErrNotSnapshotable", err)
	}
}

// TestRestoreRejectsMismatches covers the structured failure paths.
func TestRestoreRejectsMismatches(t *testing.T) {
	if _, err := Restore(nil); err == nil {
		t.Fatal("Restore(nil) succeeded")
	}
	sim := newTestSim(t, PolicySnuca)
	sim.SetWorkload(0, Workload{App: "mcf"})
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Overriding a result-affecting knob changes the chip the snapshot no
	// longer fits.
	if _, err := Restore(snap, WithPolicy(PolicyDelta)); err == nil {
		t.Fatal("policy-mismatched restore succeeded")
	}
	if _, err := Restore(snap, WithCores(64)); err == nil {
		t.Fatal("geometry-mismatched restore succeeded")
	}
}

// TestRestoreRejectsRemovedConfigKeys: a snapshot whose configuration
// carries the removed DeltaParams/IdealConfig overrides is rejected when
// decoded (the checkpoint-upload validation) and when restored, instead of
// resuming under default parameters.
func TestRestoreRejectsRemovedConfigKeys(t *testing.T) {
	sim := newTestSim(t, PolicyDelta)
	sim.SetWorkload(0, Workload{App: "mcf"})
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"DeltaParams", "IdealConfig"} {
		env := *snap.env
		env.Config = append(bytes.TrimSuffix(bytes.Clone(env.Config), []byte("}")),
			`,"`+key+`":{"MinWays":2}}`...)
		if _, err := Restore(&Snapshot{env: &env}); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("Restore with %s: err = %v", key, err)
		}
		data, err := snapshot.Encode(&env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(data); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("DecodeSnapshot with %s: err = %v", key, err)
		}
	}
}

// TestRestoreRejectsMisplacedPolicyPayload: a policy payload must sit under
// its own policy's key. A payload under another policy's key, a stateful
// policy without one, and a stateless policy with one all fail to restore.
func TestRestoreRejectsMisplacedPolicyPayload(t *testing.T) {
	capture := func(pol PolicyKind) *Snapshot {
		sim := newTestSim(t, pol)
		sim.SetWorkload(0, Workload{App: "mcf"})
		snap, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	withPolicy := func(sn *Snapshot, p snapshot.Policy) *Snapshot {
		c := *sn.env.Chip
		c.Policy = p
		env := *sn.env
		env.Chip = &c
		return &Snapshot{env: &env}
	}
	delta := capture(PolicyDelta)
	if _, err := Restore(delta); err != nil {
		t.Fatalf("unmodified delta snapshot: %v", err)
	}
	state := delta.env.Chip.Policy.State
	for name, p := range map[string]snapshot.Policy{
		"under ideal's key": {Kind: "delta", Key: "ideal", State: state},
		"missing":           {Kind: "delta"},
	} {
		if _, err := Restore(withPolicy(delta, p)); err == nil {
			t.Errorf("delta payload %s: restore succeeded", name)
		}
	}
	snuca := capture(PolicySnuca)
	if _, err := Restore(withPolicy(snuca, snapshot.Policy{Kind: "snuca", Key: "delta", State: state})); err == nil {
		t.Error("stateless policy with a payload: restore succeeded")
	}
}

// TestResultJSONRoundTrip: the wire Result must round-trip byte-equal, with
// no NaN leaking from idle cores (satellite: stable cached-result compare).
func TestResultJSONRoundTrip(t *testing.T) {
	sim := newTestSim(t, PolicySnuca)
	// One busy core, the rest idle: idle cores retire no instructions and
	// historically produced NaN geomeans.
	sim.SetWorkload(0, Workload{App: "mcf"})
	res, err := sim.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g := res.GeoMeanIPC(); g != res.GeoMeanIPC() { // NaN check
		t.Fatal("GeoMeanIPC is NaN")
	}
	wire := api.Result{GeomeanIPC: res.GeoMeanIPC(), InvalidatedLines: res.InvalidatedLines}
	for _, c := range res.Cores {
		wire.Cores = append(wire.Cores, api.CoreResult{
			Core: c.Core, Instructions: c.Instructions, Cycles: c.Cycles,
			IPC: c.IPC, MPKI: c.MPKI, MemMPKI: c.MemMPKI,
			LocalHitFrac: c.LocalHitFrac, MLP: c.MLP,
		})
	}
	a, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var back api.Result
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("Result JSON round trip not byte-stable\n a %s\n b %s", a, b)
	}
}

// FuzzSnapshotRestore drives the equivalence property from fuzzed inputs:
// policy choice, interruption boundary, and seed.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(7))
	f.Add(uint8(3), uint8(3), uint8(1))
	f.Add(uint8(0), uint8(2), uint8(42))
	f.Fuzz(func(t *testing.T, polByte, boundary, seed uint8) {
		pols := allPolicyKinds()
		checkRestoreEquivalence(t, restoreCase{
			pol:        pols[int(polByte)%len(pols)],
			mix:        "w3",
			opts:       []Option{WithBudget(20000), WithSeed(uint64(seed))},
			boundaries: []int{1 + int(boundary)%4},
			mayEnd:     true,
		})
	})
}
