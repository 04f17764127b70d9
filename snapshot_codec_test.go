package delta

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"delta/internal/chip"
	"delta/internal/experiments"
	"delta/internal/snapshot"
)

// churnSim builds the checkpoint-heavy configuration of the benchmark's
// churn16-ckpt workload: 16 cores, mix w2, the built-in churn script and
// fast-forward warmup, with auto-checkpoints every 8 quanta.
func churnSim(tb testing.TB, pol PolicyKind, opts ...Option) *Simulator {
	tb.Helper()
	sim, err := New(append([]Option{
		WithCores(16), WithPolicy(pol), WithWarmup(30000), WithBudget(24000), WithSeed(1),
		WithScenario(experiments.ChurnScenario()), WithFastForward(true), WithSnapshotEvery(8),
	}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sim.LoadMixE("w2"); err != nil {
		tb.Fatal(err)
	}
	return sim
}

// churnCheckpoint runs a churn simulation to completion and returns its last
// auto-checkpoint.
func churnCheckpoint(tb testing.TB, pol PolicyKind) *Snapshot {
	tb.Helper()
	sim := churnSim(tb, pol)
	if _, err := sim.RunCtx(context.Background()); err != nil {
		tb.Fatal(err)
	}
	snap := sim.LastSnapshot()
	if snap == nil {
		tb.Fatal("churn run took no checkpoint")
	}
	return snap
}

// checkCodec asserts the hand-written codec agrees with encoding/json on env:
// Encode writes json.Marshal's bytes, the canonical parser (not the
// fallback) accepts them, and it decodes json.Unmarshal's value.
func checkCodec(t *testing.T, env *snapshot.Envelope) {
	t.Helper()
	got, err := snapshot.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	ref := *env
	ref.SchemaVersion = snapshot.Version
	want, err := json.Marshal(&ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode differs from json.Marshal (%d vs %d bytes)", len(got), len(want))
	}
	dec, ok := snapshot.DecodeCanonical(got)
	if !ok {
		t.Fatal("Encode output fell back to encoding/json")
	}
	var jdec snapshot.Envelope
	if err := json.Unmarshal(got, &jdec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, &jdec) {
		t.Fatal("canonical decode differs from json.Unmarshal")
	}
}

// TestSnapshotCodecDifferential holds the fast codec to encoding/json on real
// snapshots: every registered policy static and under churn with
// fast-forward (departed results, scenario rates, in-flight messages),
// multithreaded mode (classifier pages), an attached recorder (sampler
// cursor), and the golden file.
func TestSnapshotCodecDifferential(t *testing.T) {
	for _, pol := range allPolicyKinds() {
		t.Run("static/"+string(pol), func(t *testing.T) {
			t.Parallel()
			sim := newTestSim(t, pol)
			sim.LoadMix("w2")
			runToBoundary(t, sim, 2)
			snap, err := sim.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			checkCodec(t, snap.env)
		})
		t.Run("churn/"+string(pol), func(t *testing.T) {
			t.Parallel()
			env := churnCheckpoint(t, pol).env
			if len(env.Chip.Departed) == 0 {
				t.Fatal("churn checkpoint has no departed results")
			}
			checkCodec(t, env)
		})
	}
	t.Run("multithreaded", func(t *testing.T) {
		t.Parallel()
		sim := newTestSim(t, PolicyDelta, WithMultithreaded(true))
		sim.LoadMix("w2")
		runToBoundary(t, sim, 2)
		snap, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.env.Chip.Classifier == nil || len(snap.env.Chip.Classifier.Pages) == 0 {
			t.Fatal("multithreaded snapshot carries no classifier pages")
		}
		checkCodec(t, snap.env)
	})
	t.Run("recorder", func(t *testing.T) {
		t.Parallel()
		sim := newTestSim(t, PolicyIdeal, WithRecorder(NewMemoryRecorder(64)))
		sim.LoadMix("w2")
		runToBoundary(t, sim, 3)
		snap, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.env.Chip.Sampler == nil {
			t.Fatal("snapshot with a recorder carries no sampler cursor")
		}
		checkCodec(t, snap.env)
	})
	t.Run("golden", func(t *testing.T) {
		t.Parallel()
		data, err := os.ReadFile(filepath.Join("testdata", "golden_snapshot_v1.json"))
		if err != nil {
			t.Fatal(err)
		}
		env, ok := snapshot.DecodeCanonical(data)
		if !ok {
			t.Fatal("golden snapshot fell back to encoding/json")
		}
		checkCodec(t, env)
		again, err := snapshot.Encode(env)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("golden snapshot does not re-encode to its own bytes (err %v)", err)
		}
	})
}

// TestCheckpointReuseMatchesFresh: auto-checkpoints captured in place
// encode exactly like fresh snapshots of the same boundary; every capture
// reuses one buffer until LastSnapshot hands it out, and a checkpoint that
// escaped is never written again.
func TestCheckpointReuseMatchesFresh(t *testing.T) {
	sim, err := New(WithCores(16), WithPolicy(PolicyDelta), WithWarmup(1000), WithBudget(16000),
		WithSeed(7), WithScenario(experiments.ChurnScenario()))
	if err != nil {
		t.Fatal(err)
	}
	sim.LoadMix("w2")
	encode := func(sn *Snapshot) []byte {
		data, err := sn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// Twelve boundaries span the storm's start and the first departure; the
	// checkpoint escapes at the sixth.
	const escapeAt, last = 6, 12
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var chips []*snapshot.Chip
	var escaped *Snapshot
	var escapedData []byte
	sim.chip.SetCheckpoint(1, func(uint64) {
		sim.storeCheckpoint()
		fresh, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sim.mu.Lock()
		reused := sim.lastSnap
		sim.mu.Unlock()
		if !bytes.Equal(encode(reused), encode(fresh)) {
			t.Fatalf("boundary %d: reused checkpoint differs from a fresh snapshot", len(chips)+1)
		}
		if escaped != nil && !bytes.Equal(encode(escaped), escapedData) {
			t.Fatalf("boundary %d: an escaped checkpoint was rewritten", len(chips)+1)
		}
		chips = append(chips, reused.env.Chip)
		switch len(chips) {
		case escapeAt:
			escaped = sim.LastSnapshot()
			escapedData = encode(escaped)
		case last:
			cancel()
		}
	})
	if _, err := sim.RunCtx(ctx); err == nil {
		t.Fatal("run finished before the last boundary")
	}
	// One buffer up to the escape, then one fresh buffer from there on.
	for k, c := range chips {
		want := chips[0]
		if k >= escapeAt {
			want = chips[escapeAt]
		}
		if c != want {
			t.Fatalf("boundary %d: capture did not reuse the checkpoint buffer", k+1)
		}
	}
	if chips[escapeAt] == escaped.env.Chip {
		t.Fatal("the capture after the escape reused the escaped checkpoint's buffer")
	}
}

// flakySnapshotPolicy is S-NUCA with a constant snapshot payload whose
// capture fails on call number failOn.
type flakySnapshotPolicy struct {
	*chip.Snuca
	calls, failOn int
}

func (p *flakySnapshotPolicy) SnapshotPolicy() (*snapshot.Policy, error) {
	if p.calls++; p.calls == p.failOn {
		return nil, errors.New("flaky policy: capture failed")
	}
	return &snapshot.Policy{Kind: p.Name(), Key: "flaky", State: json.RawMessage(`{}`)}, nil
}

func (p *flakySnapshotPolicy) RestorePolicy(*snapshot.Policy) error { return nil }

// TestCheckpointFailedCaptureKeepsPrevious: an auto-checkpoint whose policy
// capture fails leaves the previous checkpoint in place and intact. The
// capture of boundary 1 succeeds (call 1), a fresh Snapshot of the same
// boundary is the reference (call 2), and boundary 2's in-place capture
// fails (call 3); LastSnapshot must still encode exactly like the reference.
// The policy is swapped into the simulator's chip rather than registered,
// which would add it to Policies() for every other test.
func TestCheckpointFailedCaptureKeepsPrevious(t *testing.T) {
	sim := newTestSim(t, PolicySnuca)
	cfg := sim.chip.Cfg
	sim.chip.Release()
	sim.chip = chip.New(cfg, &flakySnapshotPolicy{Snuca: chip.NewSnuca(), failOn: 3})
	sim.LoadMix("w1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var want []byte
	boundary := 0
	sim.chip.SetCheckpoint(1, func(uint64) {
		boundary++
		sim.storeCheckpoint()
		if boundary == 1 {
			fresh, err := sim.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if want, err = fresh.Encode(); err != nil {
				t.Fatal(err)
			}
			return
		}
		cancel()
	})
	if _, err := sim.RunCtx(ctx); err == nil {
		t.Fatal("run finished before the second boundary")
	}
	if boundary != 2 {
		t.Fatalf("stopped after %d boundaries, want 2", boundary)
	}
	last := sim.LastSnapshot()
	if last == nil {
		t.Fatal("no checkpoint survived the failed capture")
	}
	got, err := last.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a failed capture changed the previous checkpoint")
	}
}

// TestSnapshotConcurrentEncode: LastSnapshot is safe to call from other
// goroutines, so its checkpoint must be encodable from several goroutines at
// once, including while the run keeps replacing it (run with -race).
func TestSnapshotConcurrentEncode(t *testing.T) {
	sim := newTestSim(t, PolicyDelta, WithSnapshotEvery(1), WithBudget(4000))
	sim.LoadMix("w2")
	encodeTwice := func(sn *Snapshot) {
		var wg sync.WaitGroup
		var out [2][]byte
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i], _ = sn.Encode()
			}()
		}
		wg.Wait()
		if out[0] == nil || !bytes.Equal(out[0], out[1]) {
			t.Error("concurrent encodes of one checkpoint differ")
		}
	}
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if sn := sim.LastSnapshot(); sn != nil {
				encodeTwice(sn)
			}
		}
	}()
	if _, err := sim.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(done)
	reader.Wait()
	encodeTwice(sim.LastSnapshot())
}

// shrinkEnvelope cuts a snapshot down to two tiles with a few slots and
// UMON tags each: structurally a full checkpoint (every optional section it
// had is kept), but small enough for the fuzzer to mutate quickly.
func shrinkEnvelope(env *snapshot.Envelope) *snapshot.Envelope {
	c := *env.Chip
	c.Tiles = append([]snapshot.Tile(nil), c.Tiles[:2]...)
	for i := range c.Tiles {
		t := &c.Tiles[i]
		for _, cc := range []*snapshot.Cache{&t.L1, &t.L2, &t.LLC} {
			cc.Addrs, cc.Flags, cc.Owners = cc.Addrs[:4], cc.Flags[:4], cc.Owners[:4]
			cc.Sharers, cc.Used = cc.Sharers[:4], cc.Used[:4]
		}
		m := &t.Mon
		m.Stacks = append([][]uint64(nil), m.Stacks[:3]...)
		for j, st := range m.Stacks {
			m.Stacks[j] = st[:min(len(st), 4)]
		}
		m.HitsBits, m.LastHitsBits = m.HitsBits[:4], m.LastHitsBits[:4]
	}
	out := *env
	out.Chip = &c
	return &out
}

// FuzzDecodeSnapshot: on arbitrary bytes Decode never panics, accepts or
// rejects exactly what encoding/json does, and decodes the same value; the
// canonical parser alone never accepts what json.Unmarshal would decode
// differently. Seeds: the golden snapshot and churn checkpoints taken after
// the first departure under lfoc and under bankbw over delta (a nested
// policy payload), all shrunk to two tiles so mutation stays fast (their
// full-size forms are checked by TestSnapshotCodecDifferential).
func FuzzDecodeSnapshot(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_snapshot_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	golden, err := snapshot.Decode(data)
	if err != nil {
		f.Fatal(err)
	}
	seeds := []*snapshot.Envelope{golden}
	for _, opts := range [][]Option{
		{WithPolicy(PolicyLFOC)},
		{WithPolicy(PolicyBankBW), WithPolicyParams(PolicyBankBW, map[string]string{"Base": "delta"})},
	} {
		sim := churnSim(f, PolicyLFOC, append(opts, WithSnapshotEvery(0))...)
		runToBoundary(f, sim, 12)
		churn, err := sim.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, churn.env)
	}
	for _, env := range seeds {
		data, err := snapshot.Encode(shrinkEnvelope(env))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := snapshot.Decode(data)
		var ref snapshot.Envelope
		jerr := json.Unmarshal(data, &ref)
		refOK := jerr == nil && ref.SchemaVersion == snapshot.Version && ref.Chip != nil
		if (err == nil) != refOK {
			t.Fatalf("Decode error %v; encoding/json error %v, version %d", err, jerr, ref.SchemaVersion)
		}
		if err == nil && !reflect.DeepEqual(got, &ref) {
			t.Fatal("Decode differs from json.Unmarshal")
		}
		if env, ok := snapshot.DecodeCanonical(data); ok && (jerr != nil || !reflect.DeepEqual(env, &ref)) {
			t.Fatalf("canonical parser accepted input encoding/json decodes differently (error %v)", jerr)
		}
	})
}

// BenchmarkSnapshotCodec times the checkpoint path of the churn16-ckpt
// benchmark workload on a 16-core churn checkpoint: steady-state
// auto-checkpoint capture (in place into one buffer), encode, decode and
// restore. scripts/bench_regression.sh gates capture's B/op, which would
// jump to a whole checkpoint if captures needed a second buffer, and
// decode's allocs/op, which would jump if the canonical parser silently fell
// back to encoding/json.
func BenchmarkSnapshotCodec(b *testing.B) {
	sim := churnSim(b, PolicyKind("lfoc"))
	if _, err := sim.RunCtx(context.Background()); err != nil {
		b.Fatal(err)
	}
	snap := sim.LastSnapshot()
	data, err := snap.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("capture", func(b *testing.B) {
		// Each iteration escapes the checkpoint, as a LastSnapshot caller
		// does, and lets the capture after it take a fresh buffer off the
		// clock. The timed capture is the steady state that follows: it
		// must rewrite that buffer in place.
		b.ReportAllocs()
		for range b.N {
			b.StopTimer()
			sim.LastSnapshot()
			sim.storeCheckpoint()
			b.StartTimer()
			sim.storeCheckpoint()
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := snap.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := DecodeSnapshot(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		dec, err := DecodeSnapshot(data)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := Restore(dec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
