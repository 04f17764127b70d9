package cache

import (
	"fmt"

	"delta/internal/snapshot"
)

// Snapshot captures the full array state — every slot (valid or not, since
// victim choice depends on exact layout and LRU stamps), the recency clock,
// per-partition occupancy, and stats — as parallel positional slices. The
// snapshot layout has always been structure-of-arrays, so since the in-core
// layout became SoA too this is a straight copy of the parallel slices (the
// flag byte per slot is assembled from the per-set valid/dirty bitmasks).
// Invalid slots store zeroes in every array, so encodings stay byte-identical
// across layout changes.
func (c *Cache) Snapshot() snapshot.Cache {
	var s snapshot.Cache
	c.SnapshotInto(&s)
	return s
}

// SnapshotInto is Snapshot writing into dst, reusing its slices when they
// are large enough; the result equals a fresh Snapshot's.
func (c *Cache) SnapshotInto(dst *snapshot.Cache) {
	n := c.Sets * c.Ways
	s := snapshot.Cache{
		Sets:    c.Sets,
		Ways:    c.Ways,
		Clk:     c.clk,
		Addrs:   resize(dst.Addrs, n),
		Flags:   resize(dst.Flags, n),
		Owners:  resize(dst.Owners, n),
		Sharers: resize(dst.Sharers, n),
		Used:    resize(dst.Used, n),
		Stats: snapshot.CacheStats{
			Accesses:    c.Stats.Accesses,
			Hits:        c.Stats.Hits,
			Misses:      c.Stats.Misses,
			Evictions:   c.Stats.Evictions,
			DirtyEvicts: c.Stats.DirtyEvicts,
			Invals:      c.Stats.Invals,
			BulkWalks:   c.Stats.BulkWalks,
		},
	}
	ways := c.Ways
	for set := 0; set < c.Sets; set++ {
		v, d := c.valid[set], c.dirty[set]
		lo, hi := set*ways, (set+1)*ways
		blk := c.words[set*c.stride : set*c.stride+4*ways]
		copy(s.Addrs[lo:hi], blk[:ways])
		copy(s.Used[lo:hi], blk[ways:2*ways])
		copy(s.Sharers[lo:hi], blk[2*ways:3*ways])
		owners, flags := s.Owners[lo:hi], s.Flags[lo:hi]
		for w, o := range blk[3*ways : 4*ways] {
			owners[w] = int16(uint16(o))
			flags[w] = byte(v>>uint(w)&1) | byte(d>>uint(w)&1)<<1
		}
	}
	if len(c.occupancy) > 0 {
		s.Occupancy = append(dst.Occupancy[:0], c.occupancy...)
	}
	*dst = s
}

// resize returns a non-nil slice of length n, reusing s's backing array when
// it is large enough. Every element is overwritten by the caller.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Restore overwrites the array state from a snapshot taken on a cache with
// identical geometry. The OnEvict callback and owner-tracking mode are
// construction-time configuration and are left untouched.
func (c *Cache) Restore(s snapshot.Cache) error {
	if s.Sets != c.Sets || s.Ways != c.Ways {
		return fmt.Errorf("cache: snapshot geometry %dx%d, cache is %dx%d", s.Sets, s.Ways, c.Sets, c.Ways)
	}
	n := c.Sets * c.Ways
	if len(s.Addrs) != n || len(s.Flags) != n || len(s.Owners) != n || len(s.Sharers) != n || len(s.Used) != n {
		return fmt.Errorf("cache: snapshot arrays do not cover %d lines", n)
	}
	if c.trackOwners {
		if len(s.Occupancy) != len(c.occupancy) {
			return fmt.Errorf("cache: snapshot occupancy has %d partitions, cache has %d", len(s.Occupancy), len(c.occupancy))
		}
	} else if len(s.Occupancy) != 0 {
		return fmt.Errorf("cache: snapshot carries occupancy but owner tracking is off")
	}
	for set := 0; set < c.Sets; set++ {
		var v, d uint64
		lineBase := set * c.Ways
		wordBase := set * c.stride
		for w := 0; w < c.Ways; w++ {
			c.words[wordBase+w] = s.Addrs[lineBase+w]
			c.words[wordBase+c.Ways+w] = s.Used[lineBase+w]
			c.words[wordBase+2*c.Ways+w] = s.Sharers[lineBase+w]
			c.words[wordBase+3*c.Ways+w] = uint64(uint16(s.Owners[lineBase+w]))
			f := s.Flags[lineBase+w]
			if f&1 != 0 {
				v |= 1 << uint(w)
			}
			if f&2 != 0 {
				d |= 1 << uint(w)
			}
		}
		c.valid[set] = v
		c.dirty[set] = d
	}
	c.clk = s.Clk
	copy(c.occupancy, s.Occupancy)
	c.Stats = Stats{
		Accesses:    s.Stats.Accesses,
		Hits:        s.Stats.Hits,
		Misses:      s.Stats.Misses,
		Evictions:   s.Stats.Evictions,
		DirtyEvicts: s.Stats.DirtyEvicts,
		Invals:      s.Stats.Invals,
		BulkWalks:   s.Stats.BulkWalks,
	}
	return nil
}
