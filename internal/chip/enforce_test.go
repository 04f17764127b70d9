package chip

import (
	"strings"
	"testing"

	"delta/internal/cache"
	"delta/internal/cbt"
	"delta/internal/snapshot"
)

// residentLine is one LLC line as the naive recount sees it.
type residentLine struct {
	bank  int
	addr  uint64
	owner int16
}

// llcLines lists every valid LLC line on the chip.
func llcLines(c *Chip) map[residentLine]bool {
	out := map[residentLine]bool{}
	for b, t := range c.Tiles {
		t.LLC.ForEachLine(func(_ int, ln cache.Line) {
			out[residentLine{bank: b, addr: ln.Addr, owner: ln.Owner}] = true
		})
	}
	return out
}

// enforcementChip returns a 4-core chip under testRemapPolicy in which core 1
// owns 8 ways of bank 0 and maps part of its address space there, so bank 0
// holds lines of two owners in overlapping buckets.
func enforcementChip(t *testing.T) (*Chip, *testRemapPolicy) {
	t.Helper()
	cfg := testConfig(4)
	cfg.Check = true
	p := newTestRemapPolicy(nil)
	c := New(cfg, p)
	if p.MoveWays(0, 0, 1, 8) != 8 {
		t.Fatal("could not hand core 1 eight ways of bank 0")
	}
	p.Remap(1, cbt.Build([]cbt.Share{{Bank: 1, Ways: 16}, {Bank: 0, Ways: 8}}))
	for i := 0; i < 2; i++ {
		c.SetWorkload(i, bigRegion(512, uint64(i)+1), true)
	}
	c.Run(5000, 20000)
	return c, p
}

// TestIntraBankMoveInvalidatesNothing is §IV-E3's claim: moving way
// ownership inside a bank leaves every table as it was, so the remap
// invalidates no line and every resident line stays put.
func TestIntraBankMoveInvalidatesNothing(t *testing.T) {
	c, p := enforcementChip(t)
	before := llcLines(c)
	if len(before) == 0 {
		t.Fatal("no LLC lines resident — the test exercises nothing")
	}
	walks := c.Stats.InvalWalks
	if p.MoveWays(0, 1, 0, 4) != 4 {
		t.Fatal("intra-bank move moved nothing")
	}
	for core := 0; core < 4; core++ {
		if n := p.Remap(core, p.Table(core)); n != 0 {
			t.Fatalf("core %d: unchanged table invalidated %d lines", core, n)
		}
	}
	if c.Stats.InvalWalks != walks {
		t.Fatalf("unchanged tables started %d bulk walks", c.Stats.InvalWalks-walks)
	}
	after := llcLines(c)
	if len(after) != len(before) {
		t.Fatalf("%d resident lines before the move, %d after", len(before), len(after))
	}
	for ln := range before {
		if !after[ln] {
			t.Fatalf("line %+v lost across an intra-bank move", ln)
		}
	}
}

// TestRemapInvalidatesExactlyMovedOwnerLines checks Remap against a naive
// recount: it removes exactly the remapped owner's lines in buckets that
// left their bank, and other owners' lines in those buckets survive.
func TestRemapInvalidatesExactlyMovedOwnerLines(t *testing.T) {
	c, p := enforcementChip(t)
	const core = 0
	p.MoveWays(2, 2, core, 8)
	prev := p.Table(core)
	// Buckets [128, 256) leave bank 0, overlapping core 1's [171, 256).
	next := cbt.Build([]cbt.Share{{Bank: 0, Ways: 8}, {Bank: 2, Ways: 8}})
	moved := func(ln residentLine) bool {
		bk := cbt.ExtractBucket(ln.addr, c.LLCSetBits())
		return prev.Bank(bk) == ln.bank && next.Bank(bk) != ln.bank
	}

	before := llcLines(c)
	want, bystanders := 0, 0
	for ln := range before {
		switch {
		case !moved(ln):
		case ln.owner == core:
			want++
		default:
			bystanders++
		}
	}
	if want == 0 || bystanders == 0 {
		t.Fatalf("moved buckets hold %d owner and %d other lines; need both", want, bystanders)
	}

	if got := p.Remap(core, next); got != want {
		t.Fatalf("Remap invalidated %d lines, naive recount expects %d", got, want)
	}
	after := llcLines(c)
	for ln := range before {
		gone := moved(ln) && ln.owner == core
		if after[ln] == gone {
			t.Fatalf("line %+v: resident=%v after remap, want %v", ln, after[ln], !gone)
		}
	}
	if len(after) != len(before)-want {
		t.Fatalf("%d lines after remap, want %d", len(after), len(before)-want)
	}
}

// TestRestoreTablesAllOrNothing corrupts one tile of an otherwise valid
// table snapshot: the error names that tile and no table is installed, not
// even the valid ones before it.
func TestRestoreTablesAllOrNothing(t *testing.T) {
	c := New(testConfig(4), newTestRemapPolicy(nil))
	p := c.Policy().(*testRemapPolicy)
	const k = 2
	for _, tc := range []struct {
		name    string
		corrupt func(r []snapshot.CBTRange)
	}{
		{"gap", func(r []snapshot.CBTRange) { r[len(r)-1].Start++ }},
		{"bank off the chip", func(r []snapshot.CBTRange) { r[0].Bank = 4 }},
	} {
		// The snapshot holds the private layout; the live tables differ on
		// every tile, so a partial install would show.
		p.InitEnforcement(c)
		snap := p.SnapshotTables()
		for core := 0; core < 4; core++ {
			p.Remap(core, cbt.Build([]cbt.Share{{Bank: core, Ways: 8}, {Bank: (core + 1) % 4, Ways: 8}}))
		}
		live := make([]*cbt.Table, 4)
		for core := range live {
			live[core] = p.Table(core)
		}
		tc.corrupt(snap[k].Ranges)
		err := p.RestoreTables(snap)
		if err == nil || !strings.Contains(err.Error(), "tile 2") {
			t.Fatalf("%s: error %v does not name tile %d", tc.name, err, k)
		}
		for core := range live {
			if p.Table(core) != live[core] {
				t.Fatalf("%s: failed restore replaced core %d's table", tc.name, core)
			}
		}
	}
}
