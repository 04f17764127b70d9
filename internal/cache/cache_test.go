package cache

import (
	"testing"
	"testing/quick"

	"delta/internal/sim"
)

func small() *Cache {
	// 4 sets x 4 ways x 64B = 1KB
	return New(Config{SizeBytes: 1024, Ways: 4})
}

func TestGeometry(t *testing.T) {
	c := New(Config{SizeBytes: 512 * 1024, Ways: 16})
	if c.Sets != 512 {
		t.Fatalf("LLC bank sets = %d, want 512", c.Sets)
	}
	if c.SizeBytes() != 512*1024 {
		t.Fatalf("size = %d", c.SizeBytes())
	}
}

func TestNewPanicsOnNonPow2Sets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{SizeBytes: 3 * 64 * 4, Ways: 4})
}

func TestHitAfterInsert(t *testing.T) {
	c := small()
	c.Insert(0x100, NoOwner, false, c.AllMask())
	if _, hit := c.Lookup(0x100, false); !hit {
		t.Fatal("expected hit")
	}
	if _, hit := c.Lookup(0x101, false); hit {
		t.Fatal("unexpected hit")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLRUVictim(t *testing.T) {
	c := small()
	// Fill set 0 (addresses with low 2 bits == 0 mod 4 sets).
	addrs := []uint64{0, 4, 8, 12}
	for _, a := range addrs {
		c.Insert(a, NoOwner, false, c.AllMask())
	}
	// Touch all but addr 4 so 4 becomes LRU.
	c.Lookup(0, false)
	c.Lookup(8, false)
	c.Lookup(12, false)
	_, ev, had := c.Insert(16, NoOwner, false, c.AllMask())
	if !had || ev.Addr != 4 {
		t.Fatalf("evicted %+v, want addr 4", ev)
	}
	if c.Probe(4) {
		t.Fatal("addr 4 still present")
	}
}

func TestInsertPrefersInvalidWay(t *testing.T) {
	c := small()
	c.Insert(0, NoOwner, false, c.AllMask())
	_, _, had := c.Insert(4, NoOwner, false, c.AllMask())
	if had {
		t.Fatal("evicted despite free ways")
	}
}

func TestWayMaskRestrictsVictims(t *testing.T) {
	// Owners live only in owner-tracking caches (LLC banks): 4 sets x 4 ways.
	c := New(Config{SizeBytes: 1024, Ways: 4, TrackOwners: true, Partitions: 2})
	// Fill set 0 with owners: ways get filled in mask order.
	c.Insert(0, 0, false, 0b0011)
	c.Insert(4, 0, false, 0b0011)
	c.Insert(8, 1, false, 0b1100)
	c.Insert(12, 1, false, 0b1100)
	// Partition 0 inserts again: must evict one of its own lines.
	_, ev, had := c.Insert(16, 0, false, 0b0011)
	if !had {
		t.Fatal("expected eviction")
	}
	if ev.Owner != 0 {
		t.Fatalf("evicted partition %d's line, want partition 0", ev.Owner)
	}
	// Partition 1's lines untouched.
	if !c.Probe(8) || !c.Probe(12) {
		t.Fatal("partition 1 lines lost")
	}
}

func TestInsertPanicsOnEmptyMask(t *testing.T) {
	c := small()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Insert(0, 0, false, 0)
}

func TestDirtyTracking(t *testing.T) {
	c := small()
	c.Insert(0x40, NoOwner, true, c.AllMask())
	ln, ok := c.Get(0x40)
	if !ok || !ln.Dirty {
		t.Fatal("write insert not dirty")
	}
	c.Insert(0x80, NoOwner, false, c.AllMask())
	if _, hit := c.Lookup(0x80, true); !hit {
		t.Fatal("miss")
	}
	if ln, _ := c.Get(0x80); !ln.Dirty {
		t.Fatal("write hit did not set dirty")
	}
}

func TestOnEvictHook(t *testing.T) {
	c := small()
	var evicted []uint64
	c.OnEvict = func(ln Line) { evicted = append(evicted, ln.Addr) }
	for a := uint64(0); a < 5*4; a += 4 { // 5 lines into a 4-way set
		c.Insert(a, NoOwner, false, c.AllMask())
	}
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evicted %v, want [0]", evicted)
	}
	c.InvalidateLine(4)
	if len(evicted) != 2 || evicted[1] != 4 {
		t.Fatalf("invalidate did not fire hook: %v", evicted)
	}
}

func TestBulkInvalidation(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Ways: 4, TrackOwners: true, Partitions: 4})
	for a := uint64(0); a < 32; a++ {
		c.Insert(a, int(a%4), false, c.AllMask())
	}
	n := c.InvalidateMatching(func(ln Line) bool { return ln.Owner == 2 })
	if n != 8 {
		t.Fatalf("invalidated %d lines, want 8", n)
	}
	if c.Occupancy(2) != 0 {
		t.Fatalf("occupancy(2) = %d", c.Occupancy(2))
	}
	if c.Occupancy(1) != 8 {
		t.Fatalf("occupancy(1) = %d", c.Occupancy(1))
	}
	if c.Stats.BulkWalks != 1 {
		t.Fatalf("bulk walks = %d", c.Stats.BulkWalks)
	}
}

func TestOccupancyAccounting(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 4, TrackOwners: true, Partitions: 2})
	for a := uint64(0); a < 16; a++ {
		c.Insert(a, int(a%2), false, c.AllMask())
	}
	if c.Occupancy(0)+c.Occupancy(1) != uint64(c.ValidLines()) {
		t.Fatal("occupancy does not sum to valid lines")
	}
	// Overflow the cache; evictions must keep the invariant.
	for a := uint64(16); a < 64; a++ {
		c.Insert(a, int(a%2), false, c.AllMask())
	}
	if c.Occupancy(0)+c.Occupancy(1) != uint64(c.ValidLines()) {
		t.Fatal("occupancy invariant broken after evictions")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := small()
	for a := uint64(0); a < 16; a++ {
		c.Insert(a, NoOwner, false, c.AllMask())
	}
	if n := c.InvalidateAll(); n != 16 {
		t.Fatalf("invalidated %d", n)
	}
	if c.ValidLines() != 0 {
		t.Fatal("lines remain")
	}
}

func TestSetIndexMapping(t *testing.T) {
	c := small() // 4 sets
	if c.SetIndex(0) != 0 || c.SetIndex(5) != 1 || c.SetIndex(7) != 3 {
		t.Fatal("set index wrong")
	}
	// Addresses 4 apart share a set.
	if c.SetIndex(3) != c.SetIndex(7) {
		t.Fatal("stride-4 addresses should collide")
	}
}

// Property: after any access sequence, each set holds at most Ways valid
// lines, all with distinct addresses mapping to that set, and occupancy
// accounting matches a recount.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		c := New(Config{SizeBytes: 2048, Ways: 4, TrackOwners: true, Partitions: 4})
		r := sim.NewRng(seed)
		for _, op := range ops {
			a := uint64(op % 512)
			switch r.Intn(4) {
			case 0, 1:
				if _, hit := c.Lookup(a, r.Intn(2) == 0); !hit {
					c.Insert(a, r.Intn(4), r.Intn(2) == 0, c.AllMask())
				}
			case 2:
				c.InvalidateLine(a)
			case 3:
				owner := int16(r.Intn(4))
				c.InvalidateMatching(func(ln Line) bool { return ln.Owner == owner })
			}
		}
		// Recount occupancy.
		counts := make([]uint64, 4)
		seen := make(map[uint64]bool)
		ok := true
		c.ForEachLine(func(_ int, ln Line) {
			if seen[ln.Addr] {
				ok = false
			}
			seen[ln.Addr] = true
			if ln.Owner >= 0 {
				counts[ln.Owner]++
			}
		})
		for o := 0; o < 4; o++ {
			if counts[o] != c.Occupancy(o) {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a line inserted under a single-way mask lands in that way.
func TestSingleWayMaskProperty(t *testing.T) {
	f := func(way uint8, addr uint16) bool {
		c := New(Config{SizeBytes: 1024, Ways: 4})
		w := int(way) % 4
		idx, _, _ := c.Insert(uint64(addr), NoOwner, false, 1<<w)
		if c.WayOf(idx) != w {
			return false
		}
		// Reinsert a colliding address with the same mask: the first line
		// must be the victim (only that way is allowed).
		_, ev, had := c.Insert(uint64(addr)+4096, NoOwner, false, 1<<w)
		return had && ev.Addr == uint64(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftedIndexRoundTrip(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Ways: 4}) // 16 sets
	// Place lines with a 4-bit shifted index (16-bank interleave layout);
	// they must be found (and invalidated) under the same shift only.
	addr := uint64(0x12345)
	set := c.SetIndexShifted(addr, 4)
	c.InsertIdx(set, addr, NoOwner, false, c.AllMask())
	if _, hit := c.LookupIdx(set, addr, false); !hit {
		t.Fatal("miss under matching shifted index")
	}
	if !c.ProbeIdx(set, addr) {
		t.Fatal("probe miss under shifted index")
	}
	if _, ok := c.GetIdx(set, addr); !ok {
		t.Fatal("get miss under shifted index")
	}
	if _, ok := c.InvalidateLineIdx(set, addr); !ok {
		t.Fatal("invalidate miss under shifted index")
	}
	if c.ValidLines() != 0 {
		t.Fatal("line survived invalidation")
	}
}

func TestShiftedIndexSpreadsAlignedRegions(t *testing.T) {
	// Sixteen 64-line regions at 1<<20-aligned bases: natural indexing
	// piles them onto the same sets; a 4-bit shift spreads consecutive
	// lines of each region across sets.
	c := New(Config{SizeBytes: 64 * 1024, Ways: 4}) // 256 sets
	setsTouched := map[int]bool{}
	for r := uint64(0); r < 16; r++ {
		base := r << 20
		for l := uint64(0); l < 64; l += 16 { // lines this bank owns (bank 0 of 16)
			setsTouched[c.SetIndexShifted(base+l, 4)] = true
		}
	}
	if len(setsTouched) < 4 {
		t.Fatalf("shifted index touched only %d sets", len(setsTouched))
	}
}

// TestUntrackedCacheHoldsNoDirectory pins the lean-line contract: a cache
// without owner tracking (a private L1/L2) stores no owner or sharers, so
// every call that would have to store them panics instead of dropping them.
func TestUntrackedCacheHoldsNoDirectory(t *testing.T) {
	c := small()
	idx, _, _ := c.Insert(0, NoOwner, false, c.AllMask())
	mustPanic(t, "without owner tracking", func() { c.Insert(4, 0, false, c.AllMask()) })
	mustPanic(t, "without owner tracking", func() { c.InsertIdx(1, 5, 3, false, c.AllMask()) })
	mustPanic(t, "without owner tracking", func() { c.OrSharers(idx, 1) })
	mustPanic(t, "without owner tracking", func() { c.ReassignOwner(0, 1) })
	mustPanic(t, "without owner tracking", func() {
		ln := c.LineAt(idx)
		ln.Owner = 2
		c.PutLineRaw(idx, ln)
	})
	// What it reads back is what it always stored.
	if ln := c.LineAt(idx); ln.Owner != NoOwner || ln.Sharers != 0 || c.SharersAt(idx) != 0 {
		t.Fatalf("valid untracked line reads %+v", ln)
	}
	if ln := c.LineAt(idx + 1); ln.Valid || ln.Owner != 0 || ln.Sharers != 0 {
		t.Fatalf("invalid untracked slot reads %+v", ln)
	}
}

// TestBankSharersBoundedByPartitions: a bank's sharer masks are packed to
// the narrowest power-of-two width holding one bit per partition, so a bit
// naming a partition the bank does not have panics rather than spilling
// into a neighbouring line's field.
func TestBankSharersBoundedByPartitions(t *testing.T) {
	for _, parts := range []int{2, 8, 9, 16, 33, 64} {
		// 16 lines fill every slot, so neighbouring fields share words.
		c := New(Config{SizeBytes: 1024, Ways: 4, TrackOwners: true, Partitions: parts})
		var idxs []int
		for a := uint64(0); a < 16; a++ {
			idx, _, _ := c.Insert(a, int(a)%parts, false, c.AllMask())
			idxs = append(idxs, idx)
		}
		top := uint64(1) << uint(parts-1)
		for i, idx := range idxs {
			c.OrSharers(idx, top|uint64(i%2))
		}
		for i, idx := range idxs {
			if got, want := c.SharersAt(idx), top|uint64(i%2); got != want {
				t.Fatalf("partitions %d: line %d sharers %#x, want %#x", parts, i, got, want)
			}
		}
		if parts < 64 {
			mustPanic(t, "beyond", func() { c.OrSharers(idxs[3], uint64(1)<<uint(parts)) })
			mustPanic(t, "beyond", func() {
				ln := c.LineAt(idxs[3])
				ln.Sharers = uint64(1) << uint(parts)
				c.PutLineRaw(idxs[3], ln)
			})
		}
	}
}
