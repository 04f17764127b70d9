package invariant

import (
	"strings"
	"testing"

	"delta/internal/cache"
	"delta/internal/cbt"
)

// Every check must accept a healthy structure and reject each way the checked
// code could realistically break. The rejection cases double as the "fails
// when the checked code is deliberately broken" acceptance tests.

func TestCheckWayMasksPartition(t *testing.T) {
	// Healthy exclusive partition of 16 ways across 4 cores.
	masks := []uint64{0x000f, 0x00f0, 0x0f00, 0xf000}
	if err := CheckWayMasks("bank", 16, masks, true); err != nil {
		t.Fatalf("healthy partition rejected: %v", err)
	}
	// Shared policy: everyone holds the full mask.
	shared := []uint64{0xffff, 0xffff, 0xffff, 0xffff}
	if err := CheckWayMasks("bank", 16, shared, false); err != nil {
		t.Fatalf("healthy shared masks rejected: %v", err)
	}
}

func TestCheckWayMasksRejectsOverlap(t *testing.T) {
	masks := []uint64{0x001f, 0x00f0, 0x0f00, 0xf000} // way 4 owned twice
	err := CheckWayMasks("bank", 16, masks, true)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping exclusive masks not rejected: %v", err)
	}
	// The same masks are fine when the policy is not exclusive.
	if err := CheckWayMasks("bank", 16, masks, false); err != nil {
		t.Fatalf("shared overlap rejected: %v", err)
	}
}

func TestCheckWayMasksRejectsGap(t *testing.T) {
	masks := []uint64{0x000f, 0x00f0, 0x0f00, 0x7000} // way 15 unowned
	err := CheckWayMasks("bank", 16, masks, true)
	if err == nil || !strings.Contains(err.Error(), "cover") {
		t.Fatalf("coverage gap not rejected: %v", err)
	}
}

func TestCheckWayMasksRejectsOutOfRangeWays(t *testing.T) {
	masks := []uint64{0x1ffff} // 17th way on a 16-way bank
	if err := CheckWayMasks("bank", 16, masks, false); err == nil {
		t.Fatal("mask beyond associativity not rejected")
	}
}

func TestCheckWayMasksFullWidth(t *testing.T) {
	masks := []uint64{^uint64(0)}
	if err := CheckWayMasks("bank", 64, masks, true); err != nil {
		t.Fatalf("64-way full mask rejected: %v", err)
	}
}

func newLLC(t *testing.T) *cache.Cache {
	t.Helper()
	return cache.New(cache.Config{
		SizeBytes: 64 * 1024, Ways: 16, TrackOwners: true, Partitions: 4,
	})
}

func TestCheckOccupancyHealthy(t *testing.T) {
	c := newLLC(t)
	for i := uint64(0); i < 200; i++ {
		c.Insert(i, int(i%4), false, c.AllMask())
	}
	if err := CheckOccupancy("bank", c); err != nil {
		t.Fatalf("healthy occupancy rejected: %v", err)
	}
	// Non-owner-tracking caches are skipped entirely.
	l1 := cache.New(cache.Config{SizeBytes: 32 * 1024, Ways: 8})
	l1.Insert(1, cache.NoOwner, false, l1.AllMask())
	if err := CheckOccupancy("l1", l1); err != nil {
		t.Fatalf("non-tracking cache rejected: %v", err)
	}
}

func TestCheckOccupancyCatchesOwnerCorruption(t *testing.T) {
	c := newLLC(t)
	for i := uint64(0); i < 200; i++ {
		c.Insert(i, int(i%4), false, c.AllMask())
	}
	// Simulate the bug the recount exists for: something reattributes a
	// line without adjusting the occupancy table.
	var corrupt []int
	c.ForEachLine(func(idx int, ln cache.Line) {
		if ln.Owner == 0 {
			corrupt = append(corrupt, idx)
		}
	})
	for _, idx := range corrupt {
		ln := c.LineAt(idx)
		ln.Owner = 1
		c.PutLineRaw(idx, ln)
	}
	if err := CheckOccupancy("bank", c); err == nil {
		t.Fatal("silent owner reattribution not caught")
	}
}

func TestCheckOccupancyCatchesOutOfRangeOwner(t *testing.T) {
	c := newLLC(t)
	c.Insert(1, 0, false, c.AllMask())
	target := -1
	c.ForEachLine(func(idx int, _ cache.Line) { target = idx })
	ln := c.LineAt(target)
	ln.Owner = 99
	c.PutLineRaw(target, ln)
	if err := CheckOccupancy("bank", c); err == nil {
		t.Fatal("out-of-range owner not caught")
	}
}

func TestCheckCacheStatsConservation(t *testing.T) {
	if err := CheckCacheStats("c", cache.Stats{Accesses: 10, Hits: 7, Misses: 3}); err != nil {
		t.Fatalf("healthy stats rejected: %v", err)
	}
	if err := CheckCacheStats("c", cache.Stats{Accesses: 10, Hits: 7, Misses: 2}); err == nil {
		t.Fatal("hits+misses != accesses not caught")
	}
}

func TestCheckTableHealthy(t *testing.T) {
	tbl := cbt.Build([]cbt.Share{{Bank: 0, Ways: 8}, {Bank: 3, Ways: 4}, {Bank: 2, Ways: 4}})
	if err := CheckTable("cbt", tbl, 4); err != nil {
		t.Fatalf("healthy table rejected: %v", err)
	}
	if err := CheckTable("cbt", cbt.Uniform(1), 4); err != nil {
		t.Fatalf("uniform table rejected: %v", err)
	}
}

func TestCheckTableRejectsForeignBank(t *testing.T) {
	tbl := cbt.Build([]cbt.Share{{Bank: 0, Ways: 8}, {Bank: 7, Ways: 8}})
	// Bank 7 does not exist on a 4-bank chip.
	if err := CheckTable("cbt", tbl, 4); err == nil {
		t.Fatal("out-of-range bank not caught")
	}
}

func TestMonotoneCatchesBackwardsCounter(t *testing.T) {
	m := NewMonotone()
	if err := m.Check("ctr", 5); err != nil {
		t.Fatalf("first observation rejected: %v", err)
	}
	if err := m.Check("ctr", 5); err != nil {
		t.Fatalf("equal value rejected: %v", err)
	}
	if err := m.Check("ctr", 9); err != nil {
		t.Fatalf("increase rejected: %v", err)
	}
	if err := m.Check("ctr", 8); err == nil {
		t.Fatal("decrease not caught")
	}
	// Independent counters do not interfere.
	if err := m.Check("other", 1); err != nil {
		t.Fatalf("independent counter rejected: %v", err)
	}
}
