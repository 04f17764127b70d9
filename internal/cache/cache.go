// Package cache implements the set-associative cache model used at every
// level of the simulated hierarchy: private L1s and L2s, and the distributed
// LLC banks. It supports true-LRU replacement, way-partitioned insertion
// (the intra-bank half of DELTA's enforcement mechanism), an in-cache
// directory (owner + sharer bits, as in the paper's MESIF configuration),
// inclusive back-invalidation hooks and the bulk range-invalidation walk that
// DELTA's remapping relies on.
//
// The array is stored structure-of-arrays. Every cache keeps, per set, one
// contiguous block of tags followed by recency stamps, plus per-set valid
// and dirty bitmasks; an 8-way set's tags occupy one 64-byte span, so a
// lookup touches a single cache line of tag storage plus the valid mask.
// Only owner-tracking caches (the LLC banks, where the paper's directory
// lives) add directory state: an int16 owner per line and a sharer mask per
// line packed at the narrowest power-of-two width that holds one bit per
// partition (8 bits minimum, 16 at 16 cores, 64 at 64). Private caches hold
// no directory and read back Owner NoOwner and no sharers. Positions are
// exposed to callers as flat indices, the line index set*Ways+way, which
// also indexes the directory arrays; Line remains the value type handed to
// eviction hooks and predicates.
//
// Throughout the simulator addresses are *line addresses*: the byte address
// shifted right by 6 (64-byte lines, Table II).
package cache

import (
	"fmt"
	"math/bits"

	"delta/internal/slab"
)

// LineBytes is the cache line size in bytes across the whole hierarchy.
const LineBytes = 64

// maxClk bounds a cache's recency clock: victim keys hold a stamp in their
// upper 58 bits and a way in the low six. A cache would need 1<<58 accesses
// to reach it; Restore rejects a snapshot at or beyond it.
const maxClk = 1 << 58

// NoOwner marks a line not attributed to any partition (used by caches that
// are private and do not track partitions).
const NoOwner = -1

// Line is one cache line's metadata, assembled on demand from the parallel
// arrays. Owner and Sharers are stored only by caches acting as LLC banks
// with an in-cache directory; other caches report Owner NoOwner for a valid
// line (0 for an invalid one) and no sharers.
//
// Owner is the partition that *inserted* the line and is attribution-stable
// for the line's lifetime: a hit from another partition never reattributes
// it. This is a deliberate semantics choice, not an accident of the lookup
// path — the bulk-invalidation unit of a remap (chip.Enforcement.Remap)
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

	// words holds one contiguous block of 2×Ways words per set:
	// [tags | used stamps]. A lookup scans the tag span and its stamp write
	// lands in the same block, so an access rides one sequential stream.
	// The tag of line index set*Ways+way sits at set*stride+way and its
	// stamp Ways words later.
	words  []uint64
	stride int // words per set block = 2*Ways
	// Per-set state bitmasks: bit w of valid[s]/dirty[s] is way w of set s.
	valid []uint64
	dirty []uint64

	setMask uint64
	allMask uint64 // mask of all ways, hoisted out of the access path
	clk     uint64

	// Directory state, kept only when trackOwners is set (LLC banks) and
	// indexed by line index. owners holds each line's inserting partition;
	// sharers packs one sharerBits-wide presence mask per line, 1<<sharerLog
	// masks to a word. sharerLimit has one bit per partition: the sharer
	// bits a line may carry.
	owners      []int16
	sharers     []uint64
	sharerBits  uint
	sharerLog   uint
	sharerField uint64 // mask of one packed sharer field
	sharerLimit uint64

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
	// Partitions sizes the occupancy table and the sharer masks (number of
	// cores) when TrackOwners is set. A sharer mask is one uint64 at most,
	// so it names only the first 64 partitions.
	Partitions int
}

// New builds a cache. Geometry must be a power-of-two number of sets and at
// most 64 ways (one uint64 of per-set state). Its arrays come zeroed from the
// slab free list, so a cache built on released arrays equals a fresh one.
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
		words:   slab.Words(2 * n),
		stride:  2 * cfg.Ways,
		valid:   slab.Words(sets),
		dirty:   slab.Words(sets),
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
		c.owners = slab.Shorts(n)
		c.sharerBits = 8
		for c.sharerBits < 64 && int(c.sharerBits) < cfg.Partitions {
			c.sharerBits *= 2
		}
		c.sharerLog = uint(bits.TrailingZeros(64 / c.sharerBits))
		perWord := 1 << c.sharerLog
		c.sharers = slab.Words((n + perWord - 1) / perWord)
		c.sharerField = ^uint64(0) >> (64 - c.sharerBits)
		c.sharerLimit = ^uint64(0) >> (64 - min(cfg.Partitions, 64))
	}
	return c
}

// Release hands the cache's arrays to the slab free list for reuse by
// caches built later and drops every reference to them, so the cache must
// not be used again. Releasing twice returns nothing the second time.
func (c *Cache) Release() {
	slab.PutWords(c.words)
	slab.PutWords(c.valid)
	slab.PutWords(c.dirty)
	slab.PutShorts(c.owners)
	slab.PutWords(c.sharers)
	c.words, c.valid, c.dirty, c.owners, c.sharers = nil, nil, nil, nil, nil
}

// SizeBytes returns the cache capacity.
func (c *Cache) SizeBytes() int { return c.Sets * c.Ways * LineBytes }

// tagMask returns every way of the set whose tag equals lineAddr as a
// bitmask. Masked with the set's valid bits, its lowest set bit is the way a
// first-match scan would find.
func (c *Cache) tagMask(setIdx int, lineAddr uint64) uint64 {
	base := setIdx * c.stride
	return equalMask(c.words[base:base+c.Ways], lineAddr)
}

// equalMask returns a mask with bit w set where ws[w] == v. It compares
// eight tags per chunk, each compare one bit without a data-dependent
// branch, so a scan costs the same whether it matches early, late or not at
// all. A 16-way LLC set is two chunks; the ways past the last full chunk
// (every way of a 1-, 2- or 4-way set) are compared one at a time.
func equalMask(ws []uint64, v uint64) uint64 {
	var m uint64
	n := len(ws) &^ 7
	for i := 0; i < n; i += 8 {
		c := ws[i : i+8 : i+8]
		m |= (b2u(c[0] == v) | b2u(c[1] == v)<<1 | b2u(c[2] == v)<<2 | b2u(c[3] == v)<<3 |
			b2u(c[4] == v)<<4 | b2u(c[5] == v)<<5 | b2u(c[6] == v)<<6 | b2u(c[7] == v)<<7) << uint(i)
	}
	for i := n; i < len(ws); i++ {
		m |= b2u(ws[i] == v) << uint(i)
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
	if m := c.tagMask(setIdx, lineAddr) & c.valid[setIdx]; m != 0 {
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

// WayOf returns the way within its set of a flat line index.
func (c *Cache) WayOf(idx int) int { return idx % c.Ways }

// LineAt assembles the line value at a flat index (as returned by
// Lookup/Insert or passed to ForEachLine callbacks).
func (c *Cache) LineAt(idx int) Line {
	return c.lineAt(idx/c.Ways, idx%c.Ways)
}

// lineAt is LineAt with the set/way split already done — the hot paths know
// both and must not pay the division.
func (c *Cache) lineAt(set, way int) Line {
	base := set * c.stride
	ln := Line{
		Addr:  c.words[base+way],
		Valid: c.valid[set]&(1<<uint(way)) != 0,
		Dirty: c.dirty[set]&(1<<uint(way)) != 0,
		used:  c.words[base+c.Ways+way],
	}
	if c.trackOwners {
		i := set*c.Ways + way
		ln.Owner = c.owners[i]
		ln.Sharers = c.sharersAt(i)
	} else if ln.Valid {
		ln.Owner = NoOwner
	}
	return ln
}

// sharersAt unpacks the sharer field of line index i (tracked caches only).
func (c *Cache) sharersAt(i int) uint64 {
	return c.sharers[i>>c.sharerLog] >> c.sharerShift(i) & c.sharerField
}

// setSharers overwrites the sharer field of line index i (tracked caches
// only); v must lie within sharerLimit.
func (c *Cache) setSharers(i int, v uint64) {
	sh := c.sharerShift(i)
	w := &c.sharers[i>>c.sharerLog]
	*w = *w&^(c.sharerField<<sh) | v<<sh
}

// sharerShift is the bit offset of line index i's field within its word.
func (c *Cache) sharerShift(i int) uint {
	return uint(i&(1<<c.sharerLog-1)) * c.sharerBits
}

// checkDirectory reports whether a line's owner and sharers can be stored:
// an untracked cache holds only the implicit values (NoOwner for a valid
// line, 0 for an invalid one, no sharers), and a bank's sharer bits must
// name partitions it has.
func (c *Cache) checkDirectory(valid bool, owner int16, sharers uint64) error {
	if c.trackOwners {
		if sharers&^c.sharerLimit != 0 {
			return fmt.Errorf("sharers %#x name partitions beyond %d", sharers, len(c.occupancy))
		}
		return nil
	}
	implicit := int16(0)
	if valid {
		implicit = NoOwner
	}
	if owner != implicit || sharers != 0 {
		return fmt.Errorf("owner %d and sharers %#x on a cache without owner tracking", owner, sharers)
	}
	return nil
}

// PutLineRaw overwrites the slot at a flat index with the given metadata,
// bypassing LRU, statistics and occupancy bookkeeping. It exists for tests
// that deliberately corrupt state to prove the invariant sweep fires; the
// access path never uses it. It panics on directory state the cache cannot
// store (see Restore).
func (c *Cache) PutLineRaw(idx int, ln Line) {
	if err := c.checkDirectory(ln.Valid, ln.Owner, ln.Sharers); err != nil {
		panic("cache: " + err.Error())
	}
	set, way := idx/c.Ways, idx%c.Ways
	base := set * c.stride
	c.words[base+way] = ln.Addr
	c.words[base+c.Ways+way] = ln.used
	if c.trackOwners {
		c.owners[idx] = ln.Owner
		c.setSharers(idx, ln.Sharers)
	}
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

// Lookup searches for the line and, on a hit, refreshes its recency, marks
// it dirty when write is set, and returns its flat index. Counters are
// updated. On a miss the index is -1.
func (c *Cache) Lookup(lineAddr uint64, write bool) (int, bool) {
	return c.LookupIdx(c.SetIndex(lineAddr), lineAddr, write)
}

// LookupIdx is Lookup with an explicit set index (NUCA-interleaved layouts).
func (c *Cache) LookupIdx(setIdx int, lineAddr uint64, write bool) (int, bool) {
	c.Stats.Accesses++
	if m := c.tagMask(setIdx, lineAddr) & c.valid[setIdx]; m != 0 {
		w := bits.TrailingZeros64(m)
		c.touch(setIdx, w, write)
		return setIdx*c.Ways + w, true
	}
	c.Stats.Misses++
	return -1, false
}

// touch accounts a lookup hit on way w of setIdx: the line becomes most
// recently used and, on a write, dirty.
func (c *Cache) touch(setIdx, w int, write bool) {
	c.clk++
	c.words[setIdx*c.stride+c.Ways+w] = c.clk
	c.dirty[setIdx] |= b2u(write) << uint(w)
	c.Stats.Hits++
}

// Level is the private level that served a reference (AccessPrivate).
type Level uint8

const (
	// MissL2 means both private levels missed; nothing was filled.
	MissL2 Level = iota
	// HitL1 means the L1 held the line.
	HitL1
	// HitL2 means the L2 held the line and the L1 has been refilled.
	HitL2
)

// AccessPrivate performs one reference against a private L1/L2 pair in one
// call: it probes the L1 set once and, on a miss there, the L2 set once. On
// an L2 hit it refills the L1 at the set it already probed. An L2 hit
// changes no L1 state, so that refill picks the victim Fill would pick.
// Every counter, stamp and flag of both caches ends as after l1.Lookup, then
// l2.Lookup, then, on an L2 hit, l1.Fill. On MissL2 both caches have
// counted the miss and nothing is filled: the caller fetches the line from
// below and fills the L2, then the L1 (an L2 eviction may back-invalidate an
// L1 line, so the L1 victim is picked only after it).
func AccessPrivate(l1, l2 *Cache, lineAddr uint64, write bool) Level {
	s1 := l1.SetIndex(lineAddr)
	v1 := l1.valid[s1]
	l1.Stats.Accesses++
	if m := l1.tagMask(s1, lineAddr) & v1; m != 0 {
		l1.touch(s1, bits.TrailingZeros64(m), write)
		return HitL1
	}
	l1.Stats.Misses++
	s2 := l2.SetIndex(lineAddr)
	l2.Stats.Accesses++
	m := l2.tagMask(s2, lineAddr) & l2.valid[s2]
	if m == 0 {
		l2.Stats.Misses++
		return MissL2
	}
	l2.touch(s2, bits.TrailingZeros64(m), write)
	l1.guardMutation()
	way := l1.victim(s1, v1, l1.allMask)
	l1.evict(s1, way, false)
	l1.place(s1, way, lineAddr, NoOwner, write)
	return HitL2
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
		return setIdx*c.Ways + w, true
	}
	return -1, false
}

// AllMask allows insertion into every way. It is a precomputed field read so
// the per-access fast paths (fillPrivate, insertMask) pay no recomputation.
func (c *Cache) AllMask() uint64 { return c.allMask }

// OrSharers sets directory sharer bits on the line at a flat index. The hot
// path uses it right after Lookup/Insert so the set is never walked twice.
// It panics on a cache without owner tracking, which has no directory, and
// on a bit naming a partition the bank does not have.
func (c *Cache) OrSharers(idx int, bit uint64) {
	if bit&^c.sharerLimit != 0 || !c.trackOwners {
		c.badSharers(bit)
	}
	c.sharers[idx>>c.sharerLog] |= bit << c.sharerShift(idx)
}

// badSharers panics with OrSharers' contract violation, kept out of line so
// OrSharers stays cheap on the hot path.
func (c *Cache) badSharers(bit uint64) {
	if !c.trackOwners {
		panic("cache: OrSharers on a cache without owner tracking")
	}
	panic(fmt.Sprintf("cache: sharer bits %#x name partitions beyond %d", bit, len(c.occupancy)))
}

// SharersAt returns the directory sharer bits of the line at a flat index
// (always 0 on a cache without owner tracking).
func (c *Cache) SharersAt(idx int) uint64 {
	if !c.trackOwners {
		return 0
	}
	return c.sharersAt(idx)
}

// Insert places a line, choosing a victim only among ways enabled in mask
// (way-partitioned insertion). It returns the flat index of the inserted
// line (callers that need to stamp directory bits use it instead of
// re-walking the set), plus the evicted line if a valid one was displaced.
// The line is inserted owned by owner and clean unless write. Insert panics
// if mask selects no way; the enforcement layer guarantees a partition never
// inserts without owning capacity. It also panics on an owner other than
// NoOwner when the cache does not track owners.
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
	if owner != NoOwner && !c.trackOwners {
		panic(fmt.Sprintf("cache: owner %d inserted into a cache without owner tracking", owner))
	}
	way := c.victim(setIdx, c.valid[setIdx], mask)
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
	way := c.victim(setIdx, c.valid[setIdx], c.allMask)
	c.evict(setIdx, way, false)
	c.place(setIdx, way, lineAddr, NoOwner, write)
}

// victim picks the way an insertion restricted to mask (non-empty, within
// allMask) displaces from a set whose valid mask is valid: the
// lowest-numbered invalid allowed way, otherwise the least recently used
// allowed way (lowest recency stamp, lowest way on a tie). The LRU way is
// one branch-free min over the keys stamp<<6|way of the allowed ways, so
// equal stamps fall to the lower way. Stamps never exceed the clock, which
// stays below maxClk, so no key overflows.
func (c *Cache) victim(setIdx int, valid, mask uint64) int {
	if inv := mask &^ valid; inv != 0 {
		return bits.TrailingZeros64(inv)
	}
	base := setIdx*c.stride + c.Ways
	used := c.words[base : base+c.Ways : base+c.Ways]
	best := ^uint64(0)
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		best = min(best, used[w]<<6|uint64(w))
	}
	return int(best & 63)
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
	c.Stats.DirtyEvicts += c.dirty[setIdx] >> uint(way) & 1
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
	base := setIdx*c.stride + way
	idx := setIdx*c.Ways + way
	bit := uint64(1) << uint(way)
	c.clk++
	c.words[base] = lineAddr
	c.words[base+c.Ways] = c.clk
	if c.trackOwners {
		c.owners[idx] = int16(owner)
		c.setSharers(idx, 0)
		c.noteInsert(owner)
	}
	c.valid[setIdx] |= bit
	c.dirty[setIdx] = c.dirty[setIdx]&^bit | b2u(write)<<uint(way)
	return idx
}

// clearSlot zeroes every per-line field of a slot and drops its valid/dirty
// bits (snapshots dump invalid slots too, so the stored bytes must stay
// zero).
func (c *Cache) clearSlot(setIdx, way int) {
	base := setIdx * c.stride
	c.words[base+way] = 0
	c.words[base+c.Ways+way] = 0
	if c.trackOwners {
		i := setIdx*c.Ways + way
		c.owners[i] = 0
		c.setSharers(i, 0)
	}
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
// It panics on a cache without owner tracking.
func (c *Cache) ReassignOwner(old, new int) int {
	c.guardMutation()
	if !c.trackOwners {
		panic("cache: ReassignOwner on a cache without owner tracking")
	}
	if old == new {
		return 0
	}
	c.Stats.BulkWalks++
	o16, n16 := int16(old), int16(new)
	n := 0
	for set := 0; set < c.Sets; set++ {
		owners := c.owners[set*c.Ways : (set+1)*c.Ways]
		for m := c.valid[set]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if owners[w] == o16 {
				owners[w] = n16
				n++
			}
		}
	}
	if n > 0 {
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
		for m := c.valid[set]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			fn(set*c.Ways+w, c.lineAt(set, w))
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
	if owner >= 0 && owner < len(c.occupancy) {
		c.occupancy[owner]++
	}
}

func (c *Cache) noteRemoval(ln Line) {
	if c.trackOwners && ln.Owner >= 0 && int(ln.Owner) < len(c.occupancy) {
		c.occupancy[ln.Owner]--
	}
}
