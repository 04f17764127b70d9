package trace

import (
	"fmt"

	"delta/internal/sim"
)

// StackDistGen draws each access's LRU stack distance from a caller-supplied
// distribution, so the generated stream's miss curve is, by construction, the
// distribution's tail: Misses(C) ≈ P(distance ≥ C) + cold misses. It is used
// to validate the UMON implementation and the region-mixture app models
// against a ground truth, and as a precise way to sculpt unusual miss curves
// (e.g. the far-knee shapes of xalancbmk/soplex).
//
// The LRU stack is maintained with a Fenwick tree over time slots, giving
// O(log n) select-kth-most-recent instead of the naive O(n) memmove.
type StackDistGen struct {
	Base uint64

	// dist[i] is the probability of stack distance i; distances beyond the
	// table (or the current stack depth) allocate a new line (a compulsory
	// miss at any capacity, until the footprint wraps).
	cum []float64
	rng *sim.Rng

	// LRU stack machinery: each live line occupies a slot indexed by its
	// last-access timestamp. bit counts live slots; slotLine maps slot ->
	// line (deadSlot once the line has moved on). Only the slots' order
	// matters, so the slot space starts small and compact renumbers it.
	bit      *fenwick
	slotLine []uint64
	now      int
	depth    int
	nextLine uint64
}

// stackDistSlots is a new generator's slot space; compact doubles it while
// live lines would fill half of it.
const stackDistSlots = 1 << 10

// deadSlot marks a slot whose line has since moved to a newer slot.
const deadSlot = ^uint64(0)

// NewStackDistGen builds a generator. dist must be a non-empty probability
// vector (it is normalized internally); mass not covered by the vector goes
// to "new line".
func NewStackDistGen(base uint64, dist []float64, seed uint64) *StackDistGen {
	return newStackDistGen(base, dist, seed, stackDistSlots)
}

// newStackDistGen builds a generator over a slot space of the given size.
func newStackDistGen(base uint64, dist []float64, seed uint64, slots int) *StackDistGen {
	if len(dist) == 0 {
		panic("trace: empty distance distribution")
	}
	total := 0.0
	for _, p := range dist {
		if p < 0 {
			panic(fmt.Sprintf("trace: negative probability %v", p))
		}
		total += p
	}
	if total > 1+1e-9 {
		// Normalize an over-full vector; an under-full one keeps its slack
		// as new-line probability.
		for i := range dist {
			dist[i] /= total
		}
	}
	g := &StackDistGen{
		Base: base,
		rng:  sim.NewRng(seed),
	}
	run := 0.0
	for _, p := range dist {
		run += p
		g.cum = append(g.cum, run)
	}
	g.bit = newFenwick(slots)
	g.slotLine = make([]uint64, slots)
	return g
}

// Depth returns the number of distinct lines currently tracked.
func (g *StackDistGen) Depth() int { return g.depth }

// Next draws a stack distance and returns the line at that depth (most
// recent = distance 0), refreshing its recency; out-of-range draws allocate
// a fresh line.
func (g *StackDistGen) Next() Access {
	u := g.rng.Float64()
	d := -1 // sentinel: mass beyond the table allocates a new line
	for i, c := range g.cum {
		if u < c {
			d = i
			break
		}
	}
	var line uint64
	if d < 0 || d >= g.depth {
		line = g.nextLine
		g.nextLine++
		g.depth++
	} else {
		// Select the (d+1)-th most recent live slot = (depth-d)-th from the
		// bottom in timestamp order.
		k := g.depth - d
		slot := g.bit.kth(k)
		line = g.slotLine[slot]
		g.slotLine[slot] = deadSlot
		g.bit.add(slot, -1)
	}
	g.place(line)
	return Access{Line: g.Base + line}
}

func (g *StackDistGen) place(line uint64) {
	if g.now == len(g.slotLine) {
		g.compact()
	}
	slot := g.now
	g.now++
	g.bit.add(slot, 1)
	g.slotLine[slot] = line
}

// compact renumbers the live slots 0..depth-1 in order when the timestamp
// space fills, in one walk over the slots. The space doubles while live
// lines would fill half of it, or compaction would thrash (or overflow
// outright when every slot is live).
func (g *StackDistGen) compact() {
	old := g.slotLine[:g.now]
	size := len(old)
	for g.depth >= size/2 {
		size *= 2
	}
	if size > len(old) {
		g.slotLine = make([]uint64, size)
		g.bit = newFenwick(size)
	}
	// Packing in place is safe: slot n is written only after old[n] was read.
	n := 0
	for _, line := range old {
		if line != deadSlot {
			g.slotLine[n] = line
			n++
		}
	}
	g.now = n
	g.bit.fillPrefix(n)
}

// fenwick is a binary indexed tree supporting point add and select-kth.
type fenwick struct {
	tree []int
	n    int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1), n: n} }

// fillPrefix resets the tree to slots 0..n-1 live and the rest empty.
func (f *fenwick) fillPrefix(n int) {
	for i := 1; i <= f.n; i++ {
		f.tree[i] = max(0, min(i, n)-(i-i&(-i)))
	}
}

func (f *fenwick) add(i, delta int) {
	for i++; i <= f.n; i += i & (-i) {
		f.tree[i] += delta
	}
}

// kth returns the index of the k-th live slot (1-based k) in slot order.
func (f *fenwick) kth(k int) int {
	pos := 0
	mask := 1
	for mask<<1 <= f.n {
		mask <<= 1
	}
	for ; mask > 0; mask >>= 1 {
		next := pos + mask
		if next <= f.n && f.tree[next] < k {
			pos = next
			k -= f.tree[next]
		}
	}
	return pos // 0-based slot index
}
