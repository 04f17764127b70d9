package chip

import (
	"strings"
	"testing"

	"delta/internal/cache"
	"delta/internal/cbt"
	"delta/internal/trace"
)

// testRemapPolicy is a minimal exclusive-partitioning policy for exercising
// the enforcement path without importing the real DELTA policy (which lives
// above this package). It enforces through the same Enforcement as the real
// policies and replays a byte script: every quantum it may move one way
// between partitions and remap the two cores involved.
type testRemapPolicy struct {
	Enforcement
	n, w   int
	script []byte
	pos    int
}

func newTestRemapPolicy(script []byte) *testRemapPolicy {
	return &testRemapPolicy{script: script}
}

func (p *testRemapPolicy) Name() string { return "test-remap" }

func (p *testRemapPolicy) Attach(c *Chip) {
	p.n, p.w = c.Cores(), c.Ways()
	p.InitEnforcement(c)
}

func (p *testRemapPolicy) next() int {
	if p.pos >= len(p.script) {
		return -1
	}
	b := p.script[p.pos]
	p.pos++
	return int(b)
}

func (p *testRemapPolicy) Tick(uint64) {
	to, bank, way := p.next(), p.next(), p.next()
	if way < 0 {
		return // script exhausted
	}
	to, bank, way = to%p.n, bank%p.n, way%p.w
	from := int(p.owners[bank][way])
	if from == to {
		return
	}
	p.SetOwner(bank, way, to)
	p.rebuild(from)
	p.rebuild(to)
}

// rebuild remaps core to a table apportioned by its way counts, home bank
// first.
func (p *testRemapPolicy) rebuild(core int) {
	home := p.Ways(core, core)
	if home == 0 {
		home = 1 // home bank anchors the table, as in the real policies
	}
	shares := []cbt.Share{{Bank: core, Ways: home}}
	for b := 0; b < p.n; b++ {
		if w := p.Ways(core, b); b != core && w > 0 {
			shares = append(shares, cbt.Share{Bank: b, Ways: w})
		}
	}
	p.Remap(core, cbt.BuildIncremental(p.Table(core), shares))
}

// remapScript generates a deterministic pseudo-random script.
func remapScript(n int, seed byte) []byte {
	out := make([]byte, n)
	x := uint32(seed) | 1
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = byte(x >> 16)
	}
	return out
}

func checkedConfig(cores int) Config {
	cfg := testConfig(cores)
	cfg.Check = true
	return cfg
}

// TestCheckedRemapStorm drives mixed DELTA-style (CBT) and S-NUCA (shared
// page) placement through a storm of randomized remaps with the full
// invariant sweep on: every quantum, every remap and every reclassification
// is checked; any violation panics and fails the test.
func TestCheckedRemapStorm(t *testing.T) {
	cfg := checkedConfig(16)
	cfg.Multithreaded = true
	c := New(cfg, newTestRemapPolicy(remapScript(3*200, 7)))
	app := trace.NewSharedApp(trace.SharedConfig{
		Threads: 16, PrivateLines: trace.Lines(256),
		SharedBase: 1 << 30, SharedLines: trace.Lines(512),
		SharedFraction: 0.4, Seed: 11,
	})
	for i := 0; i < 16; i++ {
		gen := trace.NewShaper(app.ThreadGen(i),
			trace.ShaperConfig{MemFraction: 0.3, Burst: 2, Seed: uint64(i) + 1})
		c.SetWorkload(i, gen, false)
	}
	c.Run(10000, 20000)
	if c.Stats.InvalWalks == 0 {
		t.Fatal("remap storm performed no bulk invalidations — the test exercised nothing")
	}
	if c.Stats.SharedInserts == 0 {
		t.Fatal("no S-NUCA-placed shared lines — mixed placement not exercised")
	}
}

// TestCheckedRunBaselines runs the shared and private baselines under the
// sweep (non-exclusive and trivially-covering mask shapes, plus the
// line-interleaved index path).
func TestCheckedRunBaselines(t *testing.T) {
	for _, pol := range []Policy{NewSnuca(), NewPrivate()} {
		c := New(checkedConfig(16), pol)
		for i := 0; i < 16; i++ {
			c.SetWorkload(i, bigRegion(256, uint64(i)+1), true)
		}
		c.Run(5000, 15000)
	}
}

// TestSnucaAliasSurvivesOwnerBucketInvalidation is the remap-vs-S-NUCA
// aliasing proof: shared pages are placed S-NUCA with Owner == NoOwner, and
// their addresses necessarily alias CBT bucket ranges (every address has a
// bucket). A remap's bulk invalidation is keyed on (owner, bucket); it must
// remove only the owner's lines and never shared-page lines that merely
// alias the moved bucket range.
func TestSnucaAliasSurvivesOwnerBucketInvalidation(t *testing.T) {
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
	c.Run(20000, 40000)
	if c.Stats.SharedInserts == 0 {
		t.Fatal("no shared lines inserted")
	}
	var all cbt.BucketSet
	for b := range all {
		all[b] = true
	}
	countShared := func(bank int) (shared int) {
		c.Tiles[bank].LLC.ForEachLine(func(_ int, ln cache.Line) {
			if ln.Owner == cache.NoOwner {
				shared++
			}
		})
		return
	}
	checked := 0
	for bank := 0; bank < 16; bank++ {
		sharedBefore := countShared(bank)
		if sharedBefore == 0 {
			continue
		}
		checked++
		ownedBefore := c.Tiles[bank].LLC.Occupancy(bank)
		// Invalidate the home core's lines across the FULL bucket range —
		// the widest possible remap. Every shared line aliases some bucket
		// in it, yet none may be removed.
		n := c.invalidateOwnerBuckets(bank, bank, &all)
		if uint64(n) != ownedBefore {
			t.Fatalf("bank %d: invalidated %d owned lines, occupancy said %d",
				bank, n, ownedBefore)
		}
		if got := countShared(bank); got != sharedBefore {
			t.Fatalf("bank %d: remap invalidation removed %d S-NUCA-placed shared lines",
				bank, sharedBefore-got)
		}
	}
	if checked == 0 {
		t.Fatal("no bank held shared lines")
	}
}

// TestFingerprintDeterminism pins the determinism invariant: same seed, same
// script, byte-identical end-of-run fingerprint.
func TestFingerprintDeterminism(t *testing.T) {
	run := func() string {
		c := New(checkedConfig(16), newTestRemapPolicy(remapScript(3*100, 3)))
		for i := 0; i < 16; i++ {
			c.SetWorkload(i, bigRegion(256, uint64(i)+1), true)
		}
		c.Run(5000, 15000)
		return c.Fingerprint()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fingerprints differ:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty fingerprint")
	}
}

// expectViolation corrupts chip state and asserts the sweep panics.
func expectViolation(t *testing.T, c *Chip, substr string, corrupt func()) {
	t.Helper()
	c.CheckInvariants("pre") // must be healthy before corruption
	corrupt()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("sweep accepted corrupted state (wanted %q)", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not mention %q", r, substr)
		}
	}()
	c.CheckInvariants("post")
}

// checkedChip returns a small ran chip with the harness armed.
func checkedChip(t *testing.T, script []byte) *Chip {
	t.Helper()
	c := New(checkedConfig(16), newTestRemapPolicy(script))
	for i := 0; i < 16; i++ {
		c.SetWorkload(i, bigRegion(256, uint64(i)+1), true)
	}
	c.Run(3000, 6000)
	return c
}

// anyLine returns the flat index of one valid line matching pred, or -1.
// Corruption tests read the line with LineAt and write the altered value
// back with PutLineRaw (which bypasses occupancy bookkeeping, exactly the
// silent-drift shape the sweep exists to catch).
func anyLine(c *cache.Cache, pred func(cache.Line) bool) int {
	found := -1
	c.ForEachLine(func(idx int, ln cache.Line) {
		if found < 0 && pred(ln) {
			found = idx
		}
	})
	return found
}

func TestSweepCatchesStatsCorruption(t *testing.T) {
	c := checkedChip(t, nil)
	expectViolation(t, c, "hits", func() { c.Tiles[3].LLC.Stats.Hits++ })
}

func TestSweepCatchesOwnerCorruption(t *testing.T) {
	c := checkedChip(t, nil)
	llc := c.Tiles[0].LLC
	victim := anyLine(llc, func(ln cache.Line) bool { return ln.Owner == 0 })
	if victim < 0 {
		t.Skip("bank 0 held no core-0 lines")
	}
	expectViolation(t, c, "occupancy", func() {
		ln := llc.LineAt(victim)
		ln.Owner = 5
		llc.PutLineRaw(victim, ln)
	})
}

func TestSweepCatchesDuplicateResidency(t *testing.T) {
	c := checkedChip(t, nil)
	idx := anyLine(c.Tiles[0].LLC, func(cache.Line) bool { return true })
	if idx < 0 {
		t.Skip("bank 0 empty")
	}
	addr := c.Tiles[0].LLC.LineAt(idx).Addr
	expectViolation(t, c, "resident in both", func() {
		c.Tiles[1].LLC.Insert(addr, 1, false, c.Tiles[1].LLC.AllMask())
	})
}

func TestSweepCatchesDirectoryDrop(t *testing.T) {
	c := checkedChip(t, nil)
	// Clear the LLC sharer bits of an L2-resident line: the directory then
	// under-reports residency (back-invalidation would miss the copy).
	l2idx := anyLine(c.Tiles[2].L2, func(cache.Line) bool { return true })
	if l2idx < 0 {
		t.Skip("core 2 L2 empty")
	}
	addr := c.Tiles[2].L2.LineAt(l2idx).Addr
	expectViolation(t, c, "sharer bit is clear", func() {
		for _, tile := range c.Tiles {
			if idx := anyLine(tile.LLC, func(ln cache.Line) bool { return ln.Addr == addr }); idx >= 0 {
				ln := tile.LLC.LineAt(idx)
				ln.Sharers = 0
				tile.LLC.PutLineRaw(idx, ln)
			}
		}
	})
}

func TestSweepCatchesInclusionBreak(t *testing.T) {
	c := checkedChip(t, nil)
	l2idx := anyLine(c.Tiles[4].L2, func(cache.Line) bool { return true })
	if l2idx < 0 {
		t.Skip("core 4 L2 empty")
	}
	addr := c.Tiles[4].L2.LineAt(l2idx).Addr
	expectViolation(t, c, "inclusion", func() {
		// Drop the LLC copy with back-invalidation suppressed: simulate a
		// lost invalidation message.
		for _, tile := range c.Tiles {
			llc := tile.LLC
			evict := llc.OnEvict
			llc.OnEvict = nil
			llc.InvalidateMatching(func(ln cache.Line) bool { return ln.Addr == addr })
			llc.OnEvict = evict
		}
	})
}

func TestSweepCatchesWayMaskCorruption(t *testing.T) {
	c := checkedChip(t, remapScript(3, 9))
	p := c.Policy().(*testRemapPolicy)
	expectViolation(t, c, "way masks", func() { p.SetOwner(6, 0, NoOwner) })
}

func TestSweepCatchesCBTCorruption(t *testing.T) {
	c := checkedChip(t, nil)
	p := c.Policy().(*testRemapPolicy)
	expectViolation(t, c, "CBT", func() {
		p.tables[1] = cbt.Build([]cbt.Share{{Bank: 99, Ways: 1}})
	})
}

func TestSweepCatchesMonotoneRegression(t *testing.T) {
	c := checkedChip(t, nil)
	if c.Stats.InvalLines == 0 {
		c.Stats.InvalLines = 10
		c.CheckInvariants("seed")
	}
	expectViolation(t, c, "went backwards", func() { c.Stats.InvalLines-- })
}

func TestDisabledSweepIsInert(t *testing.T) {
	c := New(testConfig(16), NewSnuca()) // Check off
	c.SetWorkload(0, bigRegion(256, 1), true)
	c.Run(3000, 6000)
	c.Tiles[3].LLC.Stats.Hits += 99 // would violate conservation
	c.CheckInvariants("noop")       // must not panic: harness disabled
}
