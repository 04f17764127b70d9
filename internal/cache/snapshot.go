package cache

import (
	"fmt"

	"delta/internal/snapshot"
)

// Snapshot captures the full array state — every slot (valid or not, since
// victim choice depends on exact layout and LRU stamps), the recency clock,
// per-partition occupancy, and stats — as parallel positional slices indexed
// by line index. The flag byte per slot is assembled from the per-set
// valid/dirty bitmasks. A cache without owner tracking stores no directory,
// so its snapshot carries the values it reads back: Owner NoOwner for a
// valid slot and 0 for an invalid one, and no sharers. Invalid slots store
// zeroes in every other array.
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
		blk := c.words[set*c.stride : (set+1)*c.stride]
		copy(s.Addrs[lo:hi], blk[:ways])
		copy(s.Used[lo:hi], blk[ways:])
		flags := s.Flags[lo:hi]
		for w := range flags {
			flags[w] = byte(v>>uint(w)&1) | byte(d>>uint(w)&1)<<1
		}
	}
	if c.trackOwners {
		copy(s.Owners, c.owners)
		c.unpackSharers(s.Sharers)
	} else {
		for i, f := range s.Flags {
			s.Owners[i] = -int16(f & 1) // NoOwner when valid
		}
		clear(s.Sharers)
	}
	if len(c.occupancy) > 0 {
		s.Occupancy = append(dst.Occupancy[:0], c.occupancy...)
	}
	*dst = s
}

// unpackSharers writes every line's sharer mask to dst, one per line index
// (tracked caches only).
func (c *Cache) unpackSharers(dst []uint64) {
	per := 1 << c.sharerLog
	for j, w := range c.sharers {
		seg := dst[j*per : min((j+1)*per, len(dst))]
		for k := range seg {
			seg[k] = w & c.sharerField
			w >>= c.sharerBits
		}
	}
}

// packSharers overwrites every line's sharer mask from src, one per line
// index (tracked caches only; masks must lie within sharerLimit).
func (c *Cache) packSharers(src []uint64) {
	per := 1 << c.sharerLog
	for j := range c.sharers {
		seg := src[j*per : min((j+1)*per, len(src))]
		var w uint64
		for k := len(seg) - 1; k >= 0; k-- {
			w = w<<c.sharerBits | seg[k]
		}
		c.sharers[j] = w
	}
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
// construction-time configuration and are left untouched. Snapshots arrive
// from outside the process, so directory state this cache cannot hold —
// owners or sharers on a cache without owner tracking, sharer bits beyond a
// bank's partitions — is an error, and nothing is overwritten. So is a
// clock at or beyond 1<<58 or a recency stamp beyond the clock: the access
// path stamps lines from the clock and packs a stamp and a way into one
// 64-bit victim key.
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
	if s.Clk >= maxClk {
		return fmt.Errorf("cache: snapshot clock %d is not below %d", s.Clk, uint64(maxClk))
	}
	for i, u := range s.Used {
		if u > s.Clk {
			return fmt.Errorf("cache: snapshot line %d: stamp %d is beyond the clock %d", i, u, s.Clk)
		}
	}
	for i, f := range s.Flags {
		if err := c.checkDirectory(f&1 != 0, s.Owners[i], s.Sharers[i]); err != nil {
			return fmt.Errorf("cache: snapshot line %d: %w", i, err)
		}
	}
	ways := c.Ways
	for set := 0; set < c.Sets; set++ {
		lo, hi := set*ways, (set+1)*ways
		blk := c.words[set*c.stride : (set+1)*c.stride]
		copy(blk[:ways], s.Addrs[lo:hi])
		copy(blk[ways:], s.Used[lo:hi])
		var v, d uint64
		for w, f := range s.Flags[lo:hi] {
			v |= uint64(f&1) << uint(w)
			d |= uint64(f>>1&1) << uint(w)
		}
		c.valid[set], c.dirty[set] = v, d
	}
	if c.trackOwners {
		copy(c.owners, s.Owners)
		c.packSharers(s.Sharers)
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
