package delta

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"delta/internal/trace"
)

func TestNewErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown policy", Config{Cores: 16, Policy: "bogus"}, "unknown policy"},
		{"non-pow2 cores", Config{Cores: 9}, "power of two"},
		{"non-square cores", Config{Cores: 8}, "square"},
		{"negative cores", Config{Cores: -4}, "power of two"},
	}
	for _, tc := range cases {
		sim, err := New(WithConfig(tc.cfg))
		if err == nil || sim != nil {
			t.Fatalf("%s: expected error, got sim=%v err=%v", tc.name, sim, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if sim, err := New(WithConfig(Config{})); err != nil || sim == nil {
		t.Fatalf("defaulted config should construct: sim=%v err=%v", sim, err)
	}
}

func TestLoadMixEAndSetWorkloadEErrors(t *testing.T) {
	sim, err := New(WithConfig(Config{Cores: 16}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.LoadMixE("w999"); err == nil || !strings.Contains(err.Error(), "unknown mix") {
		t.Fatalf("unknown mix error = %v", err)
	}
	if err := sim.SetWorkloadE(99, Workload{App: "mcf"}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range core error = %v", err)
	}
	if err := sim.SetWorkloadE(0, Workload{}); err == nil {
		t.Fatal("empty workload accepted")
	}
	if err := sim.SetWorkloadE(0, Workload{App: "nosuchapp"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := sim.SetWorkloadE(0, Workload{App: "mcf", Generator: trace.NewStreamGen(0, 64)}); err == nil {
		t.Fatal("workload with both App and Generator accepted")
	}
	if err := sim.LoadMixE("w2"); err != nil {
		t.Fatalf("valid mix rejected: %v", err)
	}

	// A 4-core chip is a valid mesh but cannot host a 16-slot mix.
	sim4, err := New(WithConfig(Config{Cores: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim4.LoadMixE("w2"); err == nil || !strings.Contains(err.Error(), "multiple of 16") {
		t.Fatalf("mix on 4 cores error = %v", err)
	}
}

func TestCanonicalJSONDeterminism(t *testing.T) {
	a, err := Config{}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// The zero config and its explicit-default spelling are one cache key.
	b, err := Config{Cores: 16, Policy: PolicyDelta, TimeCompression: 50,
		WarmupInstructions: 400_000, BudgetInstructions: 250_000, Seed: 1}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical forms differ:\n%s\n%s", a, b)
	}
	c, err := Config{Seed: 2}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds share a canonical form")
	}
}

// cancellingGen fires a callback after a fixed number of accesses, then
// keeps emitting; the run must stop at the next quantum boundary.
type cancellingGen struct {
	onAccess func()
	after    int
	n        int
}

func (g *cancellingGen) Next() trace.Access {
	g.n++
	if g.n == g.after {
		g.onAccess()
	}
	return trace.Access{Line: uint64(g.n % 4096), Gap: 3}
}

func TestRunCtxPreCanceledRunsNothing(t *testing.T) {
	sim, err := New(WithConfig(Config{Cores: 16,
		WarmupInstructions: 10_000, BudgetInstructions: 10_000}))
	if err != nil {
		t.Fatal(err)
	}
	sim.LoadMix("w2")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sim.RunCtx(ctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v should wrap ErrCanceled and context.Canceled", err)
	}
	if now := sim.chip.Now(); now != 0 {
		t.Fatalf("pre-canceled run advanced to cycle %d; want 0 quanta", now)
	}
}

func TestRunCtxStopsWithinOneQuantum(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sim, err := New(WithConfig(Config{Cores: 16,
		WarmupInstructions: 1_000_000, BudgetInstructions: 1_000_000}))
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 pulls the trigger mid-quantum; every other core would happily
	// keep simulating for a long time. At the cancel instant the chip's
	// clock reads the start of the in-progress quantum, and the run must
	// stop when that quantum completes — one quantum later at most.
	var cycleAtCancel uint64
	gen := &cancellingGen{after: 50, onAccess: func() {
		cycleAtCancel = sim.chip.Now()
		cancel()
	}}
	sim.SetWorkload(0, Workload{Generator: gen})
	for i := 1; i < 16; i++ {
		sim.SetWorkload(i, Workload{App: "mcf"})
	}
	res, err := sim.RunCtx(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
	quantum := sim.chip.Cfg.Quantum
	if now := sim.chip.Now(); now > cycleAtCancel+quantum {
		t.Fatalf("canceled at cycle %d but chip ran to %d (more than one quantum of %d)",
			cycleAtCancel, now, quantum)
	}
	// Partial results are still rendered.
	if len(res.Cores) != 16 {
		t.Fatalf("partial result has %d cores", len(res.Cores))
	}
}

func TestRunCtxNilErrorOnCompletion(t *testing.T) {
	sim, err := New(WithConfig(Config{Cores: 16,
		WarmupInstructions: 10_000, BudgetInstructions: 10_000}))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetWorkload(0, Workload{App: "omnetpp"})
	res, err := sim.RunCtx(context.Background())
	if err != nil {
		t.Fatalf("uncanceled RunCtx returned %v", err)
	}
	if len(res.Cores) != 1 || res.Cores[0].IPC <= 0 {
		t.Fatalf("unexpected result %+v", res.Cores)
	}
}
