// Package cache implements the set-associative cache model used at every
// level of the simulated hierarchy: private L1s and L2s, and the distributed
// LLC banks. It supports true-LRU replacement, way-partitioned insertion
// (the intra-bank half of DELTA's enforcement mechanism), an in-cache
// directory (owner + sharer bits, as in the paper's MESIF configuration),
// inclusive back-invalidation hooks and the bulk range-invalidation walk that
// DELTA's remapping relies on.
//
// The array is stored structure-of-arrays: parallel tag/owner/sharer/recency
// slices indexed by set*Ways+way, with per-set valid and dirty bitmasks. A
// set's tags occupy one contiguous 64-byte span (8 ways × 8 bytes), so a
// lookup touches a single cache line of tag storage plus the valid mask,
// instead of striding across Ways pointer-heavy structs. Positions are
// exposed to callers as flat indices ("flat index" below = set*Ways+way);
// Line remains the value type handed to eviction hooks and predicates.
//
// Throughout the simulator addresses are *line addresses*: the byte address
// shifted right by 6 (64-byte lines, Table II).
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size in bytes across the whole hierarchy.
const LineBytes = 64

// NoOwner marks a line not attributed to any partition (used by caches that
// are private and do not track partitions).
const NoOwner = -1

// Line is one cache line's metadata, assembled on demand from the parallel
// arrays. Sharers is only maintained for caches acting as LLC banks with an
// in-cache directory.
//
// Owner is the partition that *inserted* the line and is attribution-stable
// for the line's lifetime: a hit from another partition never reattributes
// it. This is a deliberate semantics choice, not an accident of the lookup
// path — the bulk-invalidation unit of a remap (chip.InvalidateOwnerBuckets)
// is keyed on Owner and must find exactly the lines the owner's CBT placed
// in the bank. Reattributing on cross-partition hits would orphan lines at
// remap time (the owner's invalidation would miss them, leaving stale copies
// behind while the bucket refills elsewhere). Occupancy accounting therefore
// answers "whose placement filled this capacity", which is also what the
// way-partition enforcement admitted the line under.
type Line struct {
	Addr    uint64 // line address; meaningful only when Valid
	Valid   bool
	Dirty   bool
	Owner   int16  // partition (core) that inserted the line, or NoOwner
	Sharers uint64 // bitmask of cores with a private copy (directory)
	used    uint64 // recency stamp for LRU
}

// Stats counts cache events. Counters are cumulative; callers snapshot and
// diff per interval where needed.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	DirtyEvicts uint64
	Invals      uint64 // lines removed by explicit invalidation
	BulkWalks   uint64 // bulk-invalidation tag walks performed
}

// MissRate returns misses/accesses, or 0 when idle.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// EvictFn observes a line leaving the cache (capacity eviction or
// invalidation). Inclusive hierarchies use it to back-invalidate upper
// levels; the LLC uses it to notify the directory.
//
// Re-entrancy contract: the hook fires while the firing cache may be
// mid-walk (InvalidateMatching visits lines in array order and invokes the
// hook with the array in a partially-invalidated state). The callback may
// read the firing cache and may freely mutate *other* caches — directory
// cleanup back-invalidating private L1/L2 copies is the intended use — but
// it must not insert into or invalidate lines of the cache it fired from;
// such re-entrant mutation would corrupt the walk and the occupancy
// accounting, and panics.
type EvictFn func(line Line)

// Cache is a single set-associative array in structure-of-arrays layout.
// Not safe for concurrent use; the chip model serializes accesses within a
// quantum. Ways is capped at 64 so a set's valid/dirty state and every way
// mask fit one uint64.
type Cache struct {
	Sets, Ways int

	// words holds the per-set parallel slices, tiled so one set's state is
	// one contiguous block of 4×Ways words:
	// [tags | used stamps | sharers | owners]. A lookup scans the tag span
	// and its stamp write lands a few cache lines later in the same block,
	// and eviction assembles the departing Line from the tail of the same
	// block, so the whole access rides one sequential stream instead of
	// scattering point misses across separate arrays. Flat line indices
	// returned by Lookup/Insert are positions of the *tag word*
	// (set*stride + way); the matching stamp, sharer and owner words sit at
	// fixed offsets +Ways, +2*Ways and +3*Ways. Owners are int16 values
	// stored zero-extended from their uint16 bit pattern (so NoOwner = -1
	// round-trips) to keep the block homogeneous.
	words  []uint64
	stride int // words per set block = 4*Ways
	// Per-set state bitmasks: bit w of valid[s]/dirty[s] is way w of set s.
	valid []uint64
	dirty []uint64

	setMask uint64
	allMask uint64 // mask of all ways, hoisted out of the access path
	clk     uint64

	// occupancy[owner] counts valid lines per partition; only maintained when
	// trackOwners is set (LLC banks).
	occupancy   []uint64
	trackOwners bool

	// walking is set while OnEvict callbacks may observe the array in a
	// partially mutated state; mutators panic when re-entered under it.
	walking bool

	OnEvict EvictFn

	Stats Stats
}

// Config describes a cache geometry in conventional units.
type Config struct {
	SizeBytes int
	Ways      int
	// TrackOwners enables per-partition occupancy accounting and directory
	// bits; enable for LLC banks only.
	TrackOwners bool
	// Partitions sizes the occupancy table (number of cores) when
	// TrackOwners is set.
	Partitions int
}

// New builds a cache. Geometry must be a power-of-two number of sets and at
// most 64 ways (one uint64 of per-set state).
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.Ways > 64 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	lines := cfg.SizeBytes / LineBytes
	sets := lines / cfg.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two (size %d, ways %d)",
			sets, cfg.SizeBytes, cfg.Ways))
	}
	n := sets * cfg.Ways
	c := &Cache{
		Sets:    sets,
		Ways:    cfg.Ways,
		words:   make([]uint64, 4*n),
		stride:  4 * cfg.Ways,
		valid:   make([]uint64, sets),
		dirty:   make([]uint64, sets),
		setMask: uint64(sets - 1),
	}
	if cfg.Ways == 64 {
		c.allMask = ^uint64(0)
	} else {
		c.allMask = (uint64(1) << cfg.Ways) - 1
	}
	if cfg.TrackOwners {
		if cfg.Partitions <= 0 {
			panic("cache: TrackOwners requires Partitions > 0")
		}
		c.trackOwners = true
		c.occupancy = make([]uint64, cfg.Partitions)
	}
	return c
}

// SizeBytes returns the cache capacity.
func (c *Cache) SizeBytes() int { return c.Sets * c.Ways * LineBytes }

// matchMask returns the set's valid ways holding lineAddr as a bitmask; its
// lowest set bit is the way a first-match scan would find.
func (c *Cache) matchMask(setIdx int, lineAddr uint64) uint64 {
	base := setIdx * c.stride
	return equalMask(c.words[base:base+c.Ways:base+c.Ways], lineAddr) & c.valid[setIdx]
}

// equalMask returns a mask with bit w set where ws[w] == v. Each compare
// becomes one bit without a data-dependent branch, so a scan costs the same
// whether it matches early, late or not at all.
func equalMask(ws []uint64, v uint64) uint64 {
	var m uint64
	for w := len(ws) - 1; w >= 0; w-- {
		m = m<<1 | b2u(ws[w] == v)
	}
	return m
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a flag set.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// findLine locates a valid line with the given address in a set, returning
// its way or -1.
func (c *Cache) findLine(setIdx int, lineAddr uint64) int {
	if m := c.matchMask(setIdx, lineAddr); m != 0 {
		return bits.TrailingZeros64(m)
	}
	return -1
}

// SetIndex returns the set an address maps to under the natural (low-bits)
// indexing used by private caches.
func (c *Cache) SetIndex(lineAddr uint64) int { return int(lineAddr & c.setMask) }

// SetIndexShifted indexes with the address pre-shifted by k bits: the layout
// of a line-interleaved NUCA, where the bank-selection bits sit below the
// set index. Lines placed with a shifted index must be looked up, probed and
// invalidated with the same shift.
func (c *Cache) SetIndexShifted(lineAddr uint64, k int) int {
	return int((lineAddr >> uint(k)) & c.setMask)
}

// SetOf returns the set holding a flat line index.
func (c *Cache) SetOf(idx int) int { return idx / c.stride }

// WayOf returns the way within its set of a flat line index.
func (c *Cache) WayOf(idx int) int { return idx % c.stride }

// LineAt assembles the line value at a flat index (as returned by
// Lookup/Insert or passed to ForEachLine callbacks).
func (c *Cache) LineAt(idx int) Line {
	return c.lineAt(idx/c.stride, idx%c.stride)
}

// lineAt is LineAt with the set/way split already done — the hot paths know
// both and must not pay the division.
func (c *Cache) lineAt(set, way int) Line {
	base := set * c.stride
	return Line{
		Addr:    c.words[base+way],
		Valid:   c.valid[set]&(1<<uint(way)) != 0,
		Dirty:   c.dirty[set]&(1<<uint(way)) != 0,
		Owner:   int16(uint16(c.words[base+3*c.Ways+way])),
		used:    c.words[base+c.Ways+way],
		Sharers: c.words[base+2*c.Ways+way],
	}
}

// putLine overwrites the slot (set, way) with the given metadata; shared by
// PutLineRaw and snapshot restoration.
func (c *Cache) putLine(set, way int, ln Line) {
	base := set * c.stride
	c.words[base+way] = ln.Addr
	c.words[base+c.Ways+way] = ln.used
	c.words[base+2*c.Ways+way] = ln.Sharers
	c.words[base+3*c.Ways+way] = uint64(uint16(ln.Owner))
	bit := uint64(1) << uint(way)
	if ln.Valid {
		c.valid[set] |= bit
	} else {
		c.valid[set] &^= bit
	}
	if ln.Dirty {
		c.dirty[set] |= bit
	} else {
		c.dirty[set] &^= bit
	}
}

// PutLineRaw overwrites the slot at a flat index with the given metadata,
// bypassing LRU, statistics and occupancy bookkeeping. It exists for
// snapshot restoration and for tests that deliberately corrupt state to
// prove the invariant sweep fires; the access path never uses it.
func (c *Cache) PutLineRaw(idx int, ln Line) {
	c.putLine(idx/c.stride, idx%c.stride, ln)
}

// Lookup searches for the line and, on a hit, refreshes its recency, marks
// it dirty when write is set, and returns its flat index. Counters are
// updated. On a miss the index is -1.
func (c *Cache) Lookup(lineAddr uint64, write bool) (int, bool) {
	return c.LookupIdx(c.SetIndex(lineAddr), lineAddr, write)
}

// LookupIdx is Lookup with an explicit set index (NUCA-interleaved layouts).
func (c *Cache) LookupIdx(setIdx int, lineAddr uint64, write bool) (int, bool) {
	c.Stats.Accesses++
	m := c.matchMask(setIdx, lineAddr)
	if m == 0 {
		c.Stats.Misses++
		return -1, false
	}
	w := bits.TrailingZeros64(m)
	idx := setIdx*c.stride + w
	c.clk++
	c.words[idx+c.Ways] = c.clk
	if write {
		c.dirty[setIdx] |= 1 << uint(w)
	}
	c.Stats.Hits++
	return idx, true
}

// Probe reports whether the line is present without touching LRU state or
// counters. UMON-style monitors and the test suite use it.
func (c *Cache) Probe(lineAddr uint64) bool {
	return c.ProbeIdx(c.SetIndex(lineAddr), lineAddr)
}

// ProbeIdx is Probe with an explicit set index.
func (c *Cache) ProbeIdx(setIdx int, lineAddr uint64) bool {
	return c.findLine(setIdx, lineAddr) >= 0
}

// Get returns the line's metadata without LRU update; ok is false when the
// line is absent.
func (c *Cache) Get(lineAddr uint64) (Line, bool) {
	return c.GetIdx(c.SetIndex(lineAddr), lineAddr)
}

// GetIdx is Get with an explicit set index.
func (c *Cache) GetIdx(setIdx int, lineAddr uint64) (Line, bool) {
	if w := c.findLine(setIdx, lineAddr); w >= 0 {
		return c.lineAt(setIdx, w), true
	}
	return Line{}, false
}

// FindIdx returns the flat line index of lineAddr within the given set
// without touching LRU state or statistics; ok is false when absent. The
// fast-forward prefill uses it to re-locate LLC residents for directory
// updates without perturbing replacement order.
func (c *Cache) FindIdx(setIdx int, lineAddr uint64) (int, bool) {
	if w := c.findLine(setIdx, lineAddr); w >= 0 {
		return setIdx*c.stride + w, true
	}
	return -1, false
}

// AllMask allows insertion into every way. It is a precomputed field read so
// the per-access fast paths (fillPrivate, insertMask) pay no recomputation.
func (c *Cache) AllMask() uint64 { return c.allMask }

// OrSharers sets directory sharer bits on the line at a flat index. The hot
// path uses it right after Lookup/Insert so the set is never walked twice.
func (c *Cache) OrSharers(idx int, bit uint64) { c.words[idx+2*c.Ways] |= bit }

// SharersAt returns the directory sharer bits of the line at a flat index.
func (c *Cache) SharersAt(idx int) uint64 { return c.words[idx+2*c.Ways] }

// Insert places a line, choosing a victim only among ways enabled in mask
// (way-partitioned insertion). It returns the flat index of the inserted
// line (callers that need to stamp directory bits use it instead of
// re-walking the set), plus the evicted line if a valid one was displaced.
// The line is inserted owned by owner and clean unless write. Insert panics
// if mask selects no way; the enforcement layer guarantees a partition never
// inserts without owning capacity.
func (c *Cache) Insert(lineAddr uint64, owner int, write bool, mask uint64) (int, Line, bool) {
	return c.InsertIdx(c.SetIndex(lineAddr), lineAddr, owner, write, mask)
}

// InsertIdx is Insert with an explicit set index.
func (c *Cache) InsertIdx(setIdx int, lineAddr uint64, owner int, write bool, mask uint64) (int, Line, bool) {
	c.guardMutation()
	mask &= c.allMask
	if mask == 0 {
		panic("cache: insertion with empty way mask")
	}
	way := c.victim(setIdx, mask)
	evicted, hadVictim := c.evict(setIdx, way, true)
	return c.place(setIdx, way, lineAddr, owner, write), evicted, hadVictim
}

// Fill installs a line at its natural set in any way, unowned, clean unless
// write: the private-cache refill. It picks the same victim and leaves the
// same state as Insert(lineAddr, NoOwner, write, AllMask()), but builds the
// evicted Line only when the OnEvict hook or owner tracking consumes it.
func (c *Cache) Fill(lineAddr uint64, write bool) {
	c.guardMutation()
	setIdx := c.SetIndex(lineAddr)
	way := c.victim(setIdx, c.allMask)
	c.evict(setIdx, way, false)
	c.place(setIdx, way, lineAddr, NoOwner, write)
}

// victim picks the way an insertion restricted to mask (non-empty, within
// allMask) displaces: the lowest-numbered invalid allowed way, otherwise the
// least recently used allowed way (lowest recency stamp, lowest way on a
// tie).
func (c *Cache) victim(setIdx int, mask uint64) int {
	if inv := mask &^ c.valid[setIdx]; inv != 0 {
		return bits.TrailingZeros64(inv)
	}
	base := setIdx * c.stride
	used := c.words[base+c.Ways : base+2*c.Ways : base+2*c.Ways]
	if mask == c.allMask {
		// Unrestricted insertion (private caches, shared policies): a
		// branch-free min over the contiguous stamp span, then the lowest
		// way holding it.
		oldest := used[0]
		for _, u := range used[1:] {
			oldest = min(oldest, u)
		}
		return bits.TrailingZeros64(equalMask(used, oldest))
	}
	victim := -1
	var oldest uint64 = ^uint64(0)
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if used[w] < oldest {
			oldest = used[w]
			victim = w
		}
	}
	return victim
}

// evict accounts for displacing way of setIdx when it holds a valid line:
// eviction counters, occupancy and the OnEvict hook. It assembles the
// departing Line only when needLine is set or the hook or occupancy
// accounting consumes it; otherwise the returned Line is zero.
func (c *Cache) evict(setIdx, way int, needLine bool) (Line, bool) {
	bit := uint64(1) << uint(way)
	if c.valid[setIdx]&bit == 0 {
		return Line{}, false
	}
	c.Stats.Evictions++
	if c.dirty[setIdx]&bit != 0 {
		c.Stats.DirtyEvicts++
	}
	if !needLine && c.OnEvict == nil && !c.trackOwners {
		return Line{}, true
	}
	ln := c.lineAt(setIdx, way)
	c.noteRemoval(ln)
	c.fireEvict(ln)
	return ln, true
}

// place writes a freshly inserted line into (setIdx, way) as most recently
// used and returns its flat index.
func (c *Cache) place(setIdx, way int, lineAddr uint64, owner int, write bool) int {
	idx := setIdx*c.stride + way
	bit := uint64(1) << uint(way)
	c.clk++
	c.words[idx] = lineAddr
	c.words[idx+c.Ways] = c.clk
	c.words[idx+2*c.Ways] = 0
	c.words[idx+3*c.Ways] = uint64(uint16(int16(owner)))
	c.valid[setIdx] |= bit
	if write {
		c.dirty[setIdx] |= bit
	} else {
		c.dirty[setIdx] &^= bit
	}
	c.noteInsert(owner)
	return idx
}

// clearSlot zeroes every per-line field of a slot and drops its valid/dirty
// bits, matching what overwriting with a zero Line did in the AoS layout
// (snapshots dump invalid slots too, so the stored bytes must stay zero).
func (c *Cache) clearSlot(setIdx, way int) {
	base := setIdx * c.stride
	c.words[base+way] = 0
	c.words[base+c.Ways+way] = 0
	c.words[base+2*c.Ways+way] = 0
	c.words[base+3*c.Ways+way] = 0
	bit := uint64(1) << uint(way)
	c.valid[setIdx] &^= bit
	c.dirty[setIdx] &^= bit
}

// InvalidateLine removes a specific line if present, returning its metadata.
// The OnEvict hook fires so inclusive upper levels are cleaned.
func (c *Cache) InvalidateLine(lineAddr uint64) (Line, bool) {
	return c.InvalidateLineIdx(c.SetIndex(lineAddr), lineAddr)
}

// InvalidateLineIdx is InvalidateLine with an explicit set index.
func (c *Cache) InvalidateLineIdx(setIdx int, lineAddr uint64) (Line, bool) {
	c.guardMutation()
	w := c.findLine(setIdx, lineAddr)
	if w < 0 {
		return Line{}, false
	}
	ln := c.lineAt(setIdx, w)
	c.clearSlot(setIdx, w)
	c.Stats.Invals++
	c.noteRemoval(ln)
	c.fireEvict(ln)
	return ln, true
}

// InvalidateMatching is the bulk-invalidation unit (Section II-C3): it walks
// every tag and invalidates lines for which pred returns true, firing OnEvict
// for each. It returns the number of lines invalidated. The walk itself
// models the hardware range-invalidation engine; callers charge its latency.
//
// OnEvict fires mid-walk with the array in a partially-invalidated state;
// see the EvictFn contract for what callbacks may and may not do.
func (c *Cache) InvalidateMatching(pred func(line Line) bool) int {
	c.guardMutation()
	c.Stats.BulkWalks++
	c.walking = true
	n := 0
	for set := 0; set < c.Sets; set++ {
		for m := c.valid[set]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			ln := c.lineAt(set, w)
			if !pred(ln) {
				continue
			}
			c.clearSlot(set, w)
			n++
			c.Stats.Invals++
			c.noteRemoval(ln)
			if c.OnEvict != nil {
				c.OnEvict(ln)
			}
		}
	}
	c.walking = false
	return n
}

// ReassignOwner rewrites the owner field of every valid line owned by old to
// new, returning the number of lines relabeled. Contents, recency, sharers
// and dirty state are untouched — this is the migration primitive: when a
// thread moves tiles its partition follows it, so the lines it placed keep
// serving hits under the new partition id instead of being flushed. The walk
// models the same range engine as InvalidateMatching; callers charge latency.
func (c *Cache) ReassignOwner(old, new int) int {
	c.guardMutation()
	if old == new {
		return 0
	}
	c.Stats.BulkWalks++
	oldWord := uint64(uint16(int16(old)))
	newWord := uint64(uint16(int16(new)))
	n := 0
	for set := 0; set < c.Sets; set++ {
		base := set * c.stride
		for m := c.valid[set]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if c.words[base+3*c.Ways+w] != oldWord {
				continue
			}
			c.words[base+3*c.Ways+w] = newWord
			n++
		}
	}
	if c.trackOwners && n > 0 {
		if old >= 0 && old < len(c.occupancy) {
			c.occupancy[old] -= uint64(n)
		}
		if new >= 0 && new < len(c.occupancy) {
			c.occupancy[new] += uint64(n)
		}
	}
	return n
}

// InvalidateAll drops every line (used when re-purposing a bank).
func (c *Cache) InvalidateAll() int {
	return c.InvalidateMatching(func(Line) bool { return true })
}

// Occupancy returns the number of valid lines owned by the partition. Only
// meaningful when the cache tracks owners.
func (c *Cache) Occupancy(owner int) uint64 {
	if !c.trackOwners || owner < 0 || owner >= len(c.occupancy) {
		return 0
	}
	return c.occupancy[owner]
}

// ValidLines returns the total number of valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for _, m := range c.valid {
		n += bits.OnesCount64(m)
	}
	return n
}

// ForEachLine visits every valid line in array order as (flat index, value).
// Mutation during the walk is not allowed; use PutLineRaw afterwards with a
// recorded index where a test needs to alter a visited line.
func (c *Cache) ForEachLine(fn func(idx int, ln Line)) {
	for set := 0; set < c.Sets; set++ {
		base := set * c.stride
		for m := c.valid[set]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			fn(base+w, c.lineAt(set, w))
		}
	}
}

// TracksOwners reports whether per-partition occupancy accounting is on.
func (c *Cache) TracksOwners() bool { return c.trackOwners }

// Partitions returns the size of the occupancy table (0 when owners are not
// tracked); the invariant checker recounts against it.
func (c *Cache) Partitions() int { return len(c.occupancy) }

// guardMutation panics on re-entrant mutation from an OnEvict callback; see
// the EvictFn contract.
func (c *Cache) guardMutation() {
	if c.walking {
		panic("cache: re-entrant mutation during an invalidation walk (OnEvict must not mutate the cache it fired from)")
	}
}

// fireEvict invokes OnEvict with the re-entrancy guard held, preserving an
// enclosing walk's guard state.
func (c *Cache) fireEvict(ln Line) {
	if c.OnEvict == nil {
		return
	}
	was := c.walking
	c.walking = true
	c.OnEvict(ln)
	c.walking = was
}

func (c *Cache) noteInsert(owner int) {
	if c.trackOwners && owner >= 0 && owner < len(c.occupancy) {
		c.occupancy[owner]++
	}
}

func (c *Cache) noteRemoval(ln Line) {
	if c.trackOwners && ln.Owner >= 0 && int(ln.Owner) < len(c.occupancy) {
		c.occupancy[ln.Owner]--
	}
}
