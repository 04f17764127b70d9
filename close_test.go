package delta

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
)

// closeRun is one simulation the Close tests compare: a configuration and
// a mix, run to completion.
type closeRun struct {
	cfg Config
	mix string
}

// closeRuns are two configurations with different policies, seeds and
// warmup modes, so the second draws arrays the first dirtied differently.
var closeRuns = [2]closeRun{
	{Config{Cores: 16, Policy: PolicyDelta, Seed: 3, FastForward: true,
		WarmupInstructions: 20_000, BudgetInstructions: 20_000}, "w2"},
	{Config{Cores: 16, Policy: PolicyIdeal, Seed: 5,
		WarmupInstructions: 15_000, BudgetInstructions: 15_000}, "w7"},
}

// run builds and runs the simulation, returning the finished simulator.
func (r closeRun) run(t *testing.T) *Simulator {
	t.Helper()
	sim := newSim(t, r.cfg)
	sim.LoadMix(r.mix)
	sim.Run()
	return sim
}

// outcome returns the finished simulator's fingerprint and encoded
// snapshot.
func outcome(t *testing.T, sim *Simulator) (string, []byte) {
	t.Helper()
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return sim.Fingerprint(), enc
}

// freshOutcome is what a closeRun yields on freshly allocated arrays.
type freshOutcome struct {
	fp  string
	enc []byte
}

// freshOutcomes runs each closeRun on freshly allocated arrays, without
// closing them: the reference every run on recycled arrays must match.
// Two collections empty the slab free list of arrays earlier tests
// released.
func freshOutcomes(t *testing.T) (out [2]freshOutcome) {
	t.Helper()
	runtime.GC()
	runtime.GC()
	for i, r := range closeRuns {
		out[i].fp, out[i].enc = outcome(t, r.run(t))
	}
	return out
}

// TestRunAfterCloseMatchesFresh: run A, close it, then run B, which draws
// A's arrays. B's fingerprint and snapshot bytes equal those of B run
// without a prior Close, in both orders.
func TestRunAfterCloseMatchesFresh(t *testing.T) {
	fresh := freshOutcomes(t)
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		a, b := closeRuns[order[0]], order[1]
		a.run(t).Close()
		sim := closeRuns[b].run(t)
		fp, enc := outcome(t, sim)
		sim.Close()
		if fp != fresh[b].fp {
			t.Fatalf("run %d after closing run %d: fingerprint differs from a fresh run", b, order[0])
		}
		if !bytes.Equal(enc, fresh[b].enc) {
			t.Fatalf("run %d after closing run %d: snapshot bytes differ from a fresh run", b, order[0])
		}
	}
}

// TestDoubleCloseHandsArraysOutOnce: closing twice returns the arrays
// once, so two simulators built afterwards own distinct arrays and each
// runs exactly like a fresh one.
func TestDoubleCloseHandsArraysOutOnce(t *testing.T) {
	fresh := freshOutcomes(t)
	sim := closeRuns[0].run(t)
	sim.Close()
	sim.Close()
	sims := make([]*Simulator, len(closeRuns))
	for i, r := range closeRuns {
		sims[i] = newSim(t, r.cfg)
		sims[i].LoadMix(r.mix)
	}
	for i, s := range sims {
		s.Run()
		if fp, _ := outcome(t, s); fp != fresh[i].fp {
			t.Fatalf("simulator %d built after a double Close: fingerprint differs from a fresh run", i)
		}
	}
	for _, s := range sims {
		s.Close()
	}
}

// TestUseAfterClosePanics: every method of a closed simulator panics with
// one named message, before touching the released arrays.
func TestUseAfterClosePanics(t *testing.T) {
	sim := closeRuns[0].run(t)
	sim.Close()
	calls := map[string]func(){
		"SetWorkload":     func() { sim.SetWorkload(0, Workload{App: "mcf"}) },
		"SetWorkloadE":    func() { _ = sim.SetWorkloadE(0, Workload{App: "mcf"}) },
		"LoadMix":         func() { sim.LoadMix("w2") },
		"LoadMixE":        func() { _ = sim.LoadMixE("w2") },
		"SetProcessGroup": func() { sim.SetProcessGroup([]int{0, 1}, 1) },
		"Run":             func() { sim.Run() },
		"RunCtx":          func() { _, _ = sim.RunCtx(context.Background()) },
		"Policy":          func() { sim.Policy() },
		"Snapshot":        func() { _, _ = sim.Snapshot() },
		"LastSnapshot":    func() { sim.LastSnapshot() },
		"Fingerprint":     func() { _ = sim.Fingerprint() },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "delta: Simulator used after Close") {
					t.Fatalf("%s after Close: panic %q, want the named use-after-Close panic", name, msg)
				}
			}()
			call()
		})
	}
}
