package chip

import (
	"testing"

	"delta/internal/cache"
	"delta/internal/cbt"
	"delta/internal/sim"
	"delta/internal/trace"
)

func testConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.Quantum = 500
	return cfg
}

// smallRegion returns a generator whose working set fits in an L2.
func smallRegion(seed uint64) trace.Generator {
	return trace.NewShaper(trace.NewRegionGen(0, trace.Lines(64), seed),
		trace.ShaperConfig{MemFraction: 0.3, Burst: 2, Seed: seed})
}

// bigRegion returns a generator with a multi-bank working set.
func bigRegion(kb int, seed uint64) trace.Generator {
	return trace.NewShaper(trace.NewRegionGen(0, trace.Lines(kb), seed),
		trace.ShaperConfig{MemFraction: 0.3, Burst: 4, Seed: seed})
}

func TestRunCompletesAndReports(t *testing.T) {
	c := New(testConfig(16), NewSnuca())
	for i := 0; i < 16; i++ {
		c.SetWorkload(i, smallRegion(uint64(i)+1), true)
	}
	c.Run(30000, 50000)
	res := c.Results()
	if len(res) != 16 {
		t.Fatalf("results for %d cores", len(res))
	}
	for _, r := range res {
		if r.Instructions < 50000 {
			t.Fatalf("core %d retired %d < budget", r.Core, r.Instructions)
		}
		// Fractional dispatch accounting at the latch boundary can nudge
		// IPC a hair over the dispatch width.
		if r.IPC <= 0 || r.IPC > 4.05 {
			t.Fatalf("core %d IPC %v out of range", r.Core, r.IPC)
		}
	}
}

func TestCacheFitWorkloadHasHighIPC(t *testing.T) {
	c := New(testConfig(16), NewSnuca())
	for i := 0; i < 16; i++ {
		c.SetWorkload(i, smallRegion(uint64(i)+1), true)
	}
	c.Run(100000, 100000)
	for _, r := range c.Results() {
		if r.IPC < 2.0 {
			t.Fatalf("L2-resident workload IPC %v, want near dispatch width", r.IPC)
		}
	}
}

func TestThrashingWorkloadHasLowIPC(t *testing.T) {
	cfg := testConfig(16)
	c := New(cfg, NewSnuca())
	for i := 0; i < 16; i++ {
		// 64 MB streams: every access misses everywhere.
		gen := trace.NewShaper(trace.NewStreamGen(0, trace.Lines(64*1024)),
			trace.ShaperConfig{MemFraction: 0.3, Burst: 1, Seed: uint64(i) + 1})
		c.SetWorkload(i, gen, true)
	}
	c.Run(5000, 20000)
	for _, r := range c.Results() {
		if r.IPC > 0.5 {
			t.Fatalf("thrashing IPC %v, want low", r.IPC)
		}
		if r.MemMPKI < 100 {
			t.Fatalf("thrashing MemMPKI %v, want ~300", r.MemMPKI)
		}
	}
}

func TestPrivatePolicyKeepsDataLocal(t *testing.T) {
	c := New(testConfig(16), NewPrivate())
	for i := 0; i < 16; i++ {
		c.SetWorkload(i, bigRegion(256, uint64(i)+1), true)
	}
	c.Run(50000, 100000)
	for _, r := range c.Results() {
		if r.LocalHitFrac != 1.0 {
			t.Fatalf("core %d local-hit fraction %v under private", r.Core, r.LocalHitFrac)
		}
	}
	// Every tile's LLC must only hold its own core's lines.
	for i, tile := range c.Tiles {
		for o := 0; o < 16; o++ {
			if o != i && tile.LLC.Occupancy(o) != 0 {
				t.Fatalf("bank %d holds %d lines of core %d", i, tile.LLC.Occupancy(o), o)
			}
		}
	}
}

func TestSnucaSpreadsAcrossBanks(t *testing.T) {
	c := New(testConfig(16), NewSnuca())
	c.SetWorkload(0, bigRegion(1024, 1), true) // one app, 1MB working set
	c.Run(100000, 200000)
	banksUsed := 0
	for _, tile := range c.Tiles {
		if tile.LLC.ValidLines() > 0 {
			banksUsed++
		}
	}
	// Line interleaving spreads a contiguous 1 MB set over every bank.
	if banksUsed < 12 {
		t.Fatalf("S-NUCA used %d/16 banks", banksUsed)
	}
	r := c.Results()[0]
	if r.LocalHitFrac > 0.3 {
		t.Fatalf("S-NUCA local-hit fraction %v, want ~1/16", r.LocalHitFrac)
	}
}

func TestPrivateBeatsSnucaLatencyForFittingSets(t *testing.T) {
	// A working set that fits one bank: private serves it at home-bank
	// latency; S-NUCA spreads it across the mesh. Private must win.
	run := func(p Policy) float64 {
		c := New(testConfig(16), p)
		for i := 0; i < 16; i++ {
			c.SetWorkload(i, bigRegion(384, uint64(i)+1), true)
		}
		c.Run(150000, 100000)
		sum := 0.0
		for _, r := range c.Results() {
			sum += r.IPC
		}
		return sum / 16
	}
	priv, snuca := run(NewPrivate()), run(NewSnuca())
	if priv <= snuca {
		t.Fatalf("private IPC %v <= snuca %v for bank-fitting sets", priv, snuca)
	}
}

func TestSnucaBeatsPrivateForOversizedSets(t *testing.T) {
	// Working sets of 2 MB >> one 512 KB bank: S-NUCA's pooled capacity
	// wins when only a few cores are active.
	run := func(p Policy) float64 {
		c := New(testConfig(16), p)
		for i := 0; i < 2; i++ {
			c.SetWorkload(i, bigRegion(2048, uint64(i)+1), true)
		}
		c.Run(400000, 200000)
		sum := 0.0
		for _, r := range c.Results() {
			sum += r.IPC
		}
		return sum / 2
	}
	priv, snuca := run(NewPrivate()), run(NewSnuca())
	if snuca <= priv {
		t.Fatalf("snuca IPC %v <= private %v for oversized sets", snuca, priv)
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	c := New(testConfig(16), NewPrivate())
	c.SetWorkload(0, bigRegion(2048, 1), true) // way larger than the bank
	c.Run(50000, 100000)
	// Inclusion: every valid L2 line must still be present in the LLC
	// (private policy: all of core 0's lines live in bank 0).
	violations := 0
	c.Tiles[0].L2.ForEachLine(func(_ int, ln cache.Line) {
		if !c.Tiles[0].LLC.Probe(ln.Addr) {
			violations++
		}
	})
	if violations != 0 {
		t.Fatalf("%d L2 lines not backed by the LLC (inclusion broken)", violations)
	}
}

func TestUmonSeesL2MissStream(t *testing.T) {
	c := New(testConfig(16), NewSnuca())
	c.SetWorkload(0, bigRegion(512, 1), true)
	c.Run(10000, 100000)
	curve := c.Monitor(0).PeekCurve()
	if curve.Accesses == 0 {
		t.Fatal("UMON saw no traffic")
	}
	// A 512KB region: misses should fall substantially from 4 to 16 ways.
	if curve.Misses(16) >= curve.Misses(4) {
		t.Fatal("miss curve flat for cache-sensitive workload")
	}
}

func TestIdleDetection(t *testing.T) {
	c := New(testConfig(16), NewSnuca())
	c.SetWorkload(0, bigRegion(256, 1), true)
	c.SetWorkload(1, trace.IdleGen{}, true)
	c.Run(10000, 50000)
	if c.IdleCore(0) {
		t.Fatal("busy core reported idle")
	}
	if !c.IdleCore(1) {
		t.Fatal("idle core not detected")
	}
	if !c.IdleCore(5) {
		t.Fatal("unassigned core not idle")
	}
}

func TestInvalidateOwnerBuckets(t *testing.T) {
	c := New(testConfig(16), NewSnuca())
	c.SetWorkload(0, bigRegion(512, 1), true)
	c.Run(10000, 50000)
	bank := 3
	before := c.Tiles[bank].LLC.Occupancy(0)
	if before == 0 {
		t.Skip("no lines landed in bank 3")
	}
	var all cbt.BucketSet
	for b := range all {
		all[b] = true
	}
	n := c.invalidateOwnerBuckets(0, bank, &all)
	if uint64(n) != before {
		t.Fatalf("invalidated %d of %d lines", n, before)
	}
	if c.Tiles[bank].LLC.Occupancy(0) != 0 {
		t.Fatal("lines remain after bucket invalidation")
	}
}

func TestMultithreadedSharedPagesUseSnuca(t *testing.T) {
	cfg := testConfig(16)
	cfg.Multithreaded = true
	c := New(cfg, NewPrivate())
	app := trace.NewSharedApp(trace.SharedConfig{
		Threads: 16, PrivateLines: trace.Lines(128),
		SharedBase: 1 << 30, SharedLines: trace.Lines(512),
		SharedFraction: 0.5, Seed: 7,
	})
	for i := 0; i < 16; i++ {
		gen := trace.NewShaper(app.ThreadGen(i),
			trace.ShaperConfig{MemFraction: 0.3, Burst: 2, Seed: uint64(i) + 1})
		c.SetWorkload(i, gen, false)
	}
	c.Run(30000, 100000)
	if c.Stats.SharedInserts == 0 {
		t.Fatal("no shared-page inserts recorded")
	}
	if c.Stats.PageReclassify == 0 {
		t.Fatal("no pages were reclassified")
	}
	// Shared lines spread across banks even under the private policy.
	spread := 0
	for i, tile := range c.Tiles {
		_ = i
		if tile.LLC.ValidLines() > 0 {
			spread++
		}
	}
	if spread < 8 {
		t.Fatalf("shared data in only %d banks", spread)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []CoreResult {
		c := New(testConfig(16), NewSnuca())
		for i := 0; i < 16; i++ {
			c.SetWorkload(i, bigRegion(256, uint64(i)+1), true)
		}
		c.Run(10000, 30000)
		return c.Results()
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Cycles != b[i].Cycles || a[i].Instructions != b[i].Instructions {
			t.Fatalf("nondeterministic run: core %d %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunPanicsWithoutWorkload(t *testing.T) {
	c := New(testConfig(16), NewSnuca())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Run(0, 1000)
}

func TestControlMessagesCountedSeparately(t *testing.T) {
	c := New(testConfig(16), NewSnuca())
	c.SetWorkload(0, bigRegion(256, 1), true)
	c.SendControl(0, 5, sim.Msg{Kind: sim.MsgNoop})
	pending := c.events.Pending()
	if len(pending) != 1 || pending[0].Msg.Kind != sim.MsgNoop {
		t.Fatalf("pending events %+v", pending)
	}
	c.Run(5000, 20000)
	if c.Net.Stats.Messages[2] != 1 { // ClassControl
		t.Fatalf("control messages %d", c.Net.Stats.Messages[2])
	}
}

func TestControlMessageToPolicyWithoutHandlerPanics(t *testing.T) {
	c := New(testConfig(16), NewSnuca())
	c.SetWorkload(0, bigRegion(256, 1), true)
	c.SendControl(0, 5, sim.Msg{Kind: "delta.gain", A: 0, B: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic delivering control message to handler-less policy")
		}
	}()
	c.Run(5000, 20000)
}

func TestBankReportsConsistency(t *testing.T) {
	c := New(testConfig(16), NewSnuca())
	for i := 0; i < 16; i++ {
		c.SetWorkload(i, bigRegion(256, uint64(i)+1), true)
	}
	c.Run(30000, 30000)
	reports := c.BankReports()
	if len(reports) != 16 {
		t.Fatalf("%d reports", len(reports))
	}
	for _, r := range reports {
		sum := 0
		for _, n := range r.OwnerLines {
			sum += n
		}
		// Owner accounting covers all owned lines; NoOwner lines (none
		// under snuca multiprogram... snuca inserts with owner=core) match.
		if sum > r.ValidLines {
			t.Fatalf("bank %d owner lines %d > valid %d", r.Bank, sum, r.ValidLines)
		}
		if r.ValidLines > r.Capacity {
			t.Fatalf("bank %d overfull", r.Bank)
		}
		if r.HitRate < 0 || r.HitRate > 1 {
			t.Fatalf("bank %d hit rate %v", r.Bank, r.HitRate)
		}
	}
	if s := c.UtilizationString(); len(s) == 0 {
		t.Fatal("empty utilization dump")
	}
	tr := c.Traffic()
	if tr.LLCAccesses == 0 || tr.LocalHits+tr.RemoteHits == 0 {
		t.Fatalf("traffic summary %+v", tr)
	}
}

func TestSnucaLineInterleaveSpreadsSets(t *testing.T) {
	// Under the line-interleaved baseline, one app's contiguous region
	// must spread across (nearly) all sets of every bank it touches.
	c := New(testConfig(16), NewSnuca())
	c.SetWorkload(0, bigRegion(1024, 1), true)
	c.Run(100000, 150000)
	for b, tile := range c.Tiles {
		if tile.LLC.ValidLines() == 0 {
			continue
		}
		setsUsed := map[int]bool{}
		tile.LLC.ForEachLine(func(_ int, ln cache.Line) {
			setsUsed[c.SnucaSetIdx(tile, ln.Addr)] = true
		})
		if len(setsUsed) < tile.LLC.Sets/2 {
			t.Fatalf("bank %d uses only %d/%d sets", b, len(setsUsed), tile.LLC.Sets)
		}
	}
}

// membershipScript applies scripted membership mutations at quantum
// boundaries, keyed by quantum index.
type membershipScript struct {
	c       *Chip
	quantum uint64
	steps   map[uint64]func(*Chip)
}

func (h *membershipScript) OnBoundary(now uint64) {
	if fn, ok := h.steps[now/h.quantum]; ok {
		fn(h.c)
		delete(h.steps, now/h.quantum)
	}
}

func (h *membershipScript) Pending(uint64) bool { return false }

func TestMigrateThenArriveDistinctAddressSpaces(t *testing.T) {
	// A migrated thread carries its address space with it. If a new workload
	// then arrives on the vacated tile, it must get a *fresh* address window:
	// reusing the tile-keyed base would alias the migrated thread's lines
	// from a second home bank, which the -check harness flags as a one-home
	// violation (found by FuzzScenarioChaos).
	cfg := testConfig(4)
	cfg.Check = true
	c := New(cfg, NewPrivate())
	for i := 0; i < 4; i++ {
		c.SetWorkload(i, bigRegion(96, uint64(i)+1), true)
	}
	migratedBase := c.Tiles[3].base
	c.SetBoundaryHook(&membershipScript{c: c, quantum: cfg.Quantum, steps: map[uint64]func(*Chip){
		2: func(c *Chip) { c.DetachWorkload(2) },
		3: func(c *Chip) { c.MigrateWorkload(3, 2) },
		4: func(c *Chip) { c.AttachWorkload(3, bigRegion(96, 99)) },
	}})
	c.Run(1_000, 6_000) // -check panics on any boundary/event violation
	if got := c.Tiles[2].base; got != migratedBase {
		t.Errorf("migrated thread's base changed: got %#x want %#x", got, migratedBase)
	}
	if got := c.Tiles[3].base; got == migratedBase {
		t.Errorf("arrival on vacated tile reused the migrated thread's address space %#x", got)
	}
}

// TestReleasedChipPanicsOnUse: Release is idempotent, a chip built after
// it runs exactly like the released one did, and the released chip's entry
// points panic with the named message instead of touching arrays it no
// longer owns.
func TestReleasedChipPanicsOnUse(t *testing.T) {
	run := func() (*Chip, string) {
		c := New(testConfig(16), NewSnuca())
		for i := 0; i < 16; i++ {
			c.SetWorkload(i, bigRegion(256, uint64(i)+1), true)
		}
		c.Run(10000, 20000)
		return c, c.Fingerprint()
	}
	c, want := run()
	c.Release()
	c.Release()
	if _, got := run(); got != want {
		t.Fatal("a chip built on released arrays ran differently")
	}
	calls := map[string]func(){
		"RunCtx":      func() { c.Run(0, 1000) },
		"SetWorkload": func() { c.SetWorkload(0, smallRegion(1), true) },
		"FastForward": func() { c.FastForward(1000) },
		"Snapshot":    func() { _, _ = c.Snapshot() },
		"Restore":     func() { _ = c.Restore(nil) },
		"Fingerprint": func() { _ = c.Fingerprint() },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); msg != "chip: use after Release" {
					t.Fatalf("%s after Release: panic %q, want the named use-after-Release panic", name, msg)
				}
			}()
			call()
		})
	}
}
