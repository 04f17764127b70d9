package cache

import (
	"reflect"
	"testing"

	"delta/internal/snapshot"
)

// churn drives a deterministic mixed workload — lookups, masked inserts,
// invalidations, sharer updates — so the array state carries every field the
// snapshot must capture: LRU stamps, dirty bits, owners, occupancy, sharers.
func churn(c *Cache, seed uint64, ops int) {
	x := seed
	for i := 0; i < ops; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 33) & 0xfff
		owner := int((x >> 20) & 3)
		write := x&1 != 0
		switch (x >> 8) & 7 {
		case 0:
			c.InvalidateLine(addr)
		case 1:
			if idx, ok := c.Lookup(addr, write); ok {
				c.OrSharers(idx, 1<<uint(owner))
			}
		default:
			mask := c.AllMask()
			if (x>>16)&3 == 0 {
				mask = 0xF << uint(owner) // masked insert exercises WayMask paths
			}
			if idx, ok := c.Lookup(addr, write); ok {
				c.OrSharers(idx, 1<<uint(owner))
			} else {
				c.Insert(addr, owner, write, mask)
			}
		}
	}
}

// TestSnapshotRestoreRoundTrip pins the SoA snapshot contract: a restored
// cache must be behaviorally indistinguishable from the original — identical
// re-snapshot, identical stats, and identical victim choices under the same
// subsequent workload (victim choice depends on exact LRU stamps and slot
// positions, so this catches any lossy packing of the words array).
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	mk := func() *Cache {
		return New(Config{SizeBytes: 16 * 1024, Ways: 8, TrackOwners: true, Partitions: 4})
	}
	orig := mk()
	churn(orig, 42, 5000)

	snap := orig.Snapshot()
	restored := mk()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Snapshot(), snap) {
		t.Fatal("re-snapshot of restored cache differs from original snapshot")
	}
	if restored.Stats != orig.Stats {
		t.Fatalf("stats diverge: %+v vs %+v", restored.Stats, orig.Stats)
	}
	for p := 0; p < 4; p++ {
		if restored.Occupancy(p) != orig.Occupancy(p) {
			t.Fatalf("partition %d occupancy %d, want %d", p, restored.Occupancy(p), orig.Occupancy(p))
		}
	}

	// Same future: identical eviction decisions access by access.
	churn(orig, 7, 2000)
	churn(restored, 7, 2000)
	if !reflect.DeepEqual(restored.Snapshot(), orig.Snapshot()) {
		t.Fatal("restored cache diverged from original under identical workload")
	}
	// Recapturing into an earlier capture's buffers equals a fresh capture.
	restored.SnapshotInto(&snap)
	if !reflect.DeepEqual(snap, orig.Snapshot()) {
		t.Fatal("SnapshotInto a reused capture differs from a fresh Snapshot")
	}
}

// TestSnapshotRestoreRejectsMismatch: geometry and occupancy-table shape are
// validated before any state is overwritten.
func TestSnapshotRestoreRejectsMismatch(t *testing.T) {
	src := New(Config{SizeBytes: 16 * 1024, Ways: 8, TrackOwners: true, Partitions: 4})
	churn(src, 1, 100)
	snap := src.Snapshot()

	if err := New(Config{SizeBytes: 8 * 1024, Ways: 8, TrackOwners: true, Partitions: 4}).Restore(snap); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if err := New(Config{SizeBytes: 16 * 1024, Ways: 8, TrackOwners: true, Partitions: 2}).Restore(snap); err == nil {
		t.Fatal("occupancy shape mismatch accepted")
	}
	if err := New(Config{SizeBytes: 16 * 1024, Ways: 8}).Restore(snap); err == nil {
		t.Fatal("occupancy snapshot accepted by owner-tracking-off cache")
	}
}

// TestSnapshotRestoreRejectsUnstorableDirectory: checkpoints arrive from
// outside the process, so a snapshot carrying directory state the cache
// cannot hold is an error, not a panic, and leaves the cache untouched.
func TestSnapshotRestoreRejectsUnstorableDirectory(t *testing.T) {
	private := func() *Cache { return New(Config{SizeBytes: 16 * 1024, Ways: 8}) }
	src := private()
	for a := uint64(0); a < 100; a++ {
		src.Fill(a, a%3 == 0)
	}
	good := src.Snapshot()
	valid, invalid := -1, -1
	for i, f := range good.Flags {
		if f&1 != 0 && valid < 0 {
			valid = i
		}
		if f&1 == 0 && invalid < 0 {
			invalid = i
		}
	}
	if good.Owners[valid] != NoOwner || good.Owners[invalid] != 0 {
		t.Fatalf("untracked snapshot owners %d (valid) / %d (invalid), want -1 / 0",
			good.Owners[valid], good.Owners[invalid])
	}
	for name, corrupt := range map[string]func(s *snapshot.Cache){
		"owner on valid line":   func(s *snapshot.Cache) { s.Owners[valid] = 3 },
		"owner on invalid slot": func(s *snapshot.Cache) { s.Owners[invalid] = NoOwner },
		"sharers":               func(s *snapshot.Cache) { s.Sharers[valid] = 1 },
	} {
		bad := src.Snapshot()
		corrupt(&bad)
		dst := private()
		before := dst.Snapshot()
		if err := dst.Restore(bad); err == nil {
			t.Fatalf("%s: untracked restore accepted", name)
		}
		if !reflect.DeepEqual(dst.Snapshot(), before) {
			t.Fatalf("%s: rejected restore modified the cache", name)
		}
	}
	if err := private().Restore(good); err != nil {
		t.Fatalf("untracked round trip: %v", err)
	}

	bank := func() *Cache { return New(Config{SizeBytes: 16 * 1024, Ways: 8, TrackOwners: true, Partitions: 4}) }
	b := bank()
	churn(b, 3, 500)
	bad := b.Snapshot()
	bad.Sharers[valid] |= 1 << 4
	if err := bank().Restore(bad); err == nil {
		t.Fatal("bank restore accepted a sharer bit beyond its partitions")
	}
}

// TestSnapshotRestoreRejectsUnorderedStamps: victim keys pack a recency
// stamp above a 6-bit way, so a snapshot whose clock reaches maxClk, or
// with a stamp beyond its clock, is an error and leaves the cache untouched.
func TestSnapshotRestoreRejectsUnorderedStamps(t *testing.T) {
	bank := func() *Cache { return New(Config{SizeBytes: 16 * 1024, Ways: 8, TrackOwners: true, Partitions: 4}) }
	src := bank()
	churn(src, 5, 200)
	for name, corrupt := range map[string]func(s *snapshot.Cache){
		"clock at maxClk":    func(s *snapshot.Cache) { s.Clk = maxClk },
		"stamp beyond clock": func(s *snapshot.Cache) { s.Used[3] = s.Clk + 1 },
		"stamp past 1<<58":   func(s *snapshot.Cache) { s.Used[0] = 1 << 60 },
	} {
		bad := src.Snapshot()
		corrupt(&bad)
		dst := bank()
		before := dst.Snapshot()
		if err := dst.Restore(bad); err == nil {
			t.Fatalf("%s: restore accepted", name)
		}
		if !reflect.DeepEqual(dst.Snapshot(), before) {
			t.Fatalf("%s: rejected restore modified the cache", name)
		}
	}
}
