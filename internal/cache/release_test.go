package cache

import (
	"reflect"
	"testing"
)

// TestReleasedArraysBuildFreshCaches: a bank left with dirty, owned and
// shared lines is released; the cache built next, on its arrays, equals a
// fresh one field for field, and both behave identically under the same
// workload. The released cache keeps none of its arrays. The race
// detector's pools drop puts at random, so the test repeats until the
// arrays are seen reused.
func TestReleasedArraysBuildFreshCaches(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 1024, Ways: 16, TrackOwners: true, Partitions: 16}
	reused := 0
	for i := 0; i < 20; i++ {
		old := New(cfg)
		churn(old, uint64(i+1), 20_000)
		dirty, shared := false, false
		old.ForEachLine(func(_ int, ln Line) {
			dirty = dirty || ln.Dirty
			shared = shared || ln.Sharers != 0
		})
		if !dirty || !shared || old.Occupancy(1) == 0 {
			t.Fatal("churn left no dirty, shared or owned lines")
		}
		words, owners := &old.words[0], &old.owners[0]
		old.Release()
		if old.words != nil || old.valid != nil || old.dirty != nil || old.owners != nil || old.sharers != nil {
			t.Fatal("released cache kept an array")
		}
		old.Release() // a second Release returns nothing

		c, fresh := New(cfg), New(cfg)
		if &c.words[0] == words && &c.owners[0] == owners {
			reused++
		}
		if !reflect.DeepEqual(c, fresh) {
			t.Fatal("cache built on released arrays differs from a fresh one")
		}
		churn(c, 99, 5_000)
		churn(fresh, 99, 5_000)
		if !reflect.DeepEqual(c.Snapshot(), fresh.Snapshot()) {
			t.Fatal("cache built on released arrays diverges from a fresh one under the same workload")
		}
		c.Release()
		fresh.Release()
	}
	if reused == 0 {
		t.Fatal("New never drew the released arrays")
	}
}
