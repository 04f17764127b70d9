package cache

import (
	"fmt"
	"reflect"
	"testing"

	"delta/internal/sim"
	"delta/internal/snapshot"
)

// refCache is the naive reference model the SoA Cache is checked against:
// each set is a plain slice of Line values (sharers, owner, dirty bit and
// recency stamp included), and every operation is a linear scan written
// straight from the replacement and accounting rules, with no bitmasks.
type refCache struct {
	sets, ways int
	lines      [][]Line
	clk        uint64
	occupancy  []uint64 // nil unless owners are tracked
	stats      Stats
	evicted    []Line // lines handed to the eviction hook, in order
}

func newRefCache(sets, ways, partitions int) *refCache {
	r := &refCache{sets: sets, ways: ways, lines: make([][]Line, sets)}
	for s := range r.lines {
		r.lines[s] = make([]Line, ways)
	}
	if partitions > 0 {
		r.occupancy = make([]uint64, partitions)
	}
	return r
}

// find returns the first valid way of set holding addr, or -1.
func (r *refCache) find(set int, addr uint64) int {
	for w, ln := range r.lines[set] {
		if ln.Valid && ln.Addr == addr {
			return w
		}
	}
	return -1
}

func (r *refCache) lookup(set int, addr uint64, write bool) (int, bool) {
	r.stats.Accesses++
	w := r.find(set, addr)
	if w < 0 {
		r.stats.Misses++
		return -1, false
	}
	r.stats.Hits++
	r.clk++
	ln := &r.lines[set][w]
	ln.used = r.clk
	if write {
		ln.Dirty = true
	}
	return w, true
}

// remove accounts for a valid line leaving the cache and hands it to the
// hook.
func (r *refCache) remove(ln Line) {
	if r.occupancy != nil && ln.Owner >= 0 && int(ln.Owner) < len(r.occupancy) {
		r.occupancy[ln.Owner]--
	}
	r.evicted = append(r.evicted, ln)
}

// insert places addr in set: the lowest-numbered invalid way allowed by
// mask, else the allowed way with the smallest stamp (lowest way on a tie).
func (r *refCache) insert(set int, addr uint64, owner int, write bool, mask uint64) (int, Line, bool) {
	victim := -1
	for w := 0; w < r.ways; w++ {
		if mask&(1<<uint(w)) != 0 && !r.lines[set][w].Valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		for w := 0; w < r.ways; w++ {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			if victim < 0 || r.lines[set][w].used < r.lines[set][victim].used {
				victim = w
			}
		}
	}
	old := r.lines[set][victim]
	if old.Valid {
		r.stats.Evictions++
		if old.Dirty {
			r.stats.DirtyEvicts++
		}
		r.remove(old)
	}
	r.clk++
	r.lines[set][victim] = Line{Addr: addr, Valid: true, Dirty: write, Owner: int16(owner), used: r.clk}
	if r.occupancy != nil && owner >= 0 && owner < len(r.occupancy) {
		r.occupancy[owner]++
	}
	if old.Valid {
		return victim, old, true
	}
	return victim, Line{}, false
}

func (r *refCache) invalidate(set int, addr uint64) (Line, bool) {
	w := r.find(set, addr)
	if w < 0 {
		return Line{}, false
	}
	ln := r.lines[set][w]
	r.lines[set][w] = Line{}
	r.stats.Invals++
	r.remove(ln)
	return ln, true
}

func (r *refCache) invalidateMatching(pred func(Line) bool) int {
	r.stats.BulkWalks++
	n := 0
	for s := range r.lines {
		for w, ln := range r.lines[s] {
			if !ln.Valid || !pred(ln) {
				continue
			}
			r.lines[s][w] = Line{}
			r.stats.Invals++
			r.remove(ln)
			n++
		}
	}
	return n
}

// snapshot renders the model in the Cache snapshot's positional layout.
func (r *refCache) snapshot() snapshot.Cache {
	n := r.sets * r.ways
	s := snapshot.Cache{
		Sets: r.sets, Ways: r.ways, Clk: r.clk,
		Addrs: make([]uint64, n), Flags: make([]byte, n), Owners: make([]int16, n),
		Sharers: make([]uint64, n), Used: make([]uint64, n),
		Stats: snapshot.CacheStats{
			Accesses: r.stats.Accesses, Hits: r.stats.Hits, Misses: r.stats.Misses,
			Evictions: r.stats.Evictions, DirtyEvicts: r.stats.DirtyEvicts,
			Invals: r.stats.Invals, BulkWalks: r.stats.BulkWalks,
		},
	}
	for set, lines := range r.lines {
		for w, ln := range lines {
			i := set*r.ways + w
			s.Addrs[i], s.Owners[i], s.Sharers[i], s.Used[i] = ln.Addr, ln.Owner, ln.Sharers, ln.used
			if ln.Valid {
				s.Flags[i] |= 1
			}
			if ln.Dirty {
				s.Flags[i] |= 2
			}
		}
	}
	if r.occupancy != nil {
		s.Occupancy = append([]uint64(nil), r.occupancy...)
	}
	return s
}

// TestCacheMatchesReference drives Cache and refCache with one seeded
// stream of lookups, masked and unmasked inserts, fills, sharer updates
// and invalidations, and compares every return value, the eviction hook's
// observations and Stats after each step, then the full snapshot. Caches
// without owner tracking hold no directory, so their stream inserts only
// NoOwner and sets no sharers; owner-tracking caches sweep the partition
// count so the 8-, 16- and 64-bit sharer packings are all compared.
func TestCacheMatchesReference(t *testing.T) {
	const sets = 8
	for _, ways := range []int{4, 8, 16} {
		for _, tracked := range []bool{false, true} {
			for _, hooked := range []bool{false, true} {
				name := fmt.Sprintf("ways%d/owners=%v/hook=%v", ways, tracked, hooked)
				t.Run(name, func(t *testing.T) {
					if !tracked {
						diffAgainstReference(t, ways, sets, 0, hooked)
						return
					}
					for _, partitions := range []int{4, 16, 64} {
						t.Run(fmt.Sprintf("partitions%d", partitions), func(t *testing.T) {
							diffAgainstReference(t, ways, sets, partitions, hooked)
						})
					}
				})
			}
		}
	}
}

// diffAgainstReference runs one stream; partitions 0 means a cache without
// owner tracking.
func diffAgainstReference(t *testing.T, ways, sets, partitions int, hooked bool) {
	cfg := Config{SizeBytes: sets * ways * LineBytes, Ways: ways}
	tracked := partitions > 0
	if tracked {
		cfg.TrackOwners, cfg.Partitions = true, partitions
	}
	c := New(cfg)
	ref := newRefCache(sets, ways, partitions)
	var got []Line
	if hooked {
		c.OnEvict = func(ln Line) { got = append(got, ln) }
	}
	rng := sim.NewRng(uint64(ways*10) + uint64(partitions))
	span := uint64(sets * ways * 3) // enough reuse for hits, enough spread for evictions
	// at converts a reference (set, way) to the cache's flat index.
	at := func(set, way int) int {
		if way < 0 {
			return -1
		}
		return set*c.Ways + way
	}
	for step := 0; step < 40000; step++ {
		addr := rng.Uint64n(span)
		write := rng.Intn(3) == 0
		owner := NoOwner
		if tracked {
			owner = rng.Intn(partitions+1) - 1 // NoOwner or a partition
		}
		set := c.SetIndex(addr)
		var op string
		switch k := rng.Intn(20); {
		case k < 6:
			op = "Lookup"
			idx, hit := c.Lookup(addr, write)
			w, rhit := ref.lookup(set, addr, write)
			if idx != at(set, w) || hit != rhit {
				t.Fatalf("step %d Lookup(%d): got (%d,%v), reference (%d,%v)", step, addr, idx, hit, at(set, w), rhit)
			}
			if tracked && hit && rng.Intn(2) == 0 {
				bit := uint64(1) << uint(rng.Intn(partitions))
				c.OrSharers(idx, bit)
				ref.lines[set][w].Sharers |= bit
			}
		case k < 9:
			op = "LookupIdx"
			// An arbitrary set, so misses outside the natural set and
			// lines placed by InsertIdx below are both exercised.
			s := rng.Intn(sets)
			idx, hit := c.LookupIdx(s, addr, write)
			w, rhit := ref.lookup(s, addr, write)
			if idx != at(s, w) || hit != rhit {
				t.Fatalf("step %d LookupIdx(%d,%d): got (%d,%v), reference (%d,%v)", step, s, addr, idx, hit, at(s, w), rhit)
			}
		case k < 13:
			op = "Insert"
			mask := c.AllMask()
			if rng.Intn(2) == 0 {
				for mask = 0; mask == 0; {
					mask = rng.Uint64() & c.AllMask()
				}
			}
			s := set
			var idx int
			var ev Line
			var had bool
			if rng.Intn(4) == 0 {
				s = rng.Intn(sets)
				idx, ev, had = c.InsertIdx(s, addr, owner, write, mask)
			} else {
				idx, ev, had = c.Insert(addr, owner, write, mask)
			}
			w, rev, rhad := ref.insert(s, addr, owner, write, mask)
			if idx != at(s, w) || ev != rev || had != rhad {
				t.Fatalf("step %d Insert(%d,%d,%v,%#x): got (%d,%+v,%v), reference (%d,%+v,%v)",
					step, addr, owner, write, mask, idx, ev, had, at(s, w), rev, rhad)
			}
		case k < 17:
			op = "Fill"
			c.Fill(addr, write)
			ref.insert(set, addr, NoOwner, write, c.AllMask())
		case k < 19:
			op = "InvalidateLine"
			ln, ok := c.InvalidateLine(addr)
			rln, rok := ref.invalidate(set, addr)
			if ln != rln || ok != rok {
				t.Fatalf("step %d InvalidateLine(%d): got (%+v,%v), reference (%+v,%v)", step, addr, ln, ok, rln, rok)
			}
		default:
			op = "InvalidateMatching"
			o, mod := int16(owner), uint64(rng.Intn(5)+2)
			// Untracked lines all read back NoOwner, so only the address
			// filter selects among them.
			pred := func(ln Line) bool { return (tracked && ln.Owner == o) || ln.Addr%mod == 0 }
			if n, rn := c.InvalidateMatching(pred), ref.invalidateMatching(pred); n != rn {
				t.Fatalf("step %d InvalidateMatching: got %d, reference %d", step, n, rn)
			}
		}
		if c.Stats != ref.stats {
			t.Fatalf("step %d %s: stats %+v, reference %+v", step, op, c.Stats, ref.stats)
		}
		if hooked {
			if !reflect.DeepEqual(got, ref.evicted) {
				t.Fatalf("step %d %s: hook saw %+v, reference evicted %+v", step, op, got, ref.evicted)
			}
		}
		got, ref.evicted = got[:0], ref.evicted[:0]
		if p := rng.Uint64n(span); c.Probe(p) != (ref.find(c.SetIndex(p), p) >= 0) {
			t.Fatalf("step %d %s: Probe(%d) disagrees with the reference", step, op, p)
		}
	}
	if got, want := c.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final snapshot differs from the reference\n got %+v\nwant %+v", got, want)
	}
	// An untracked cache reports zero occupancy for every partition.
	for o := 0; o < max(partitions, 4); o++ {
		var want uint64
		if tracked {
			want = ref.occupancy[o]
		}
		if c.Occupancy(o) != want {
			t.Fatalf("occupancy[%d] = %d, reference %d", o, c.Occupancy(o), want)
		}
	}
}
