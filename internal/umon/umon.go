// Package umon implements the UMON monitoring hardware (Qureshi & Patt,
// MICRO 2006) that DELTA and the centralized baselines use to estimate how an
// application's miss count would change under different cache allocations.
//
// A Monitor observes one core's LLC-access stream (the stream of private-L2
// misses). Internally it keeps a small number of *sampled* shadow-tag sets —
// dynamic set sampling, as in the original proposal — each holding an LRU
// stack of up to MaxWays tags. A hit at stack depth d means the access would
// have hit in any cache with more than d ways allocated to this core, so
// per-depth hit counters directly yield the miss curve misses(w).
//
// The hardware provisions MaxWays tags per sampled set (TagEntries reports
// that), but the model stores only what the stream has touched: the stacks
// are views into one slab whose per-stack depth starts at initialDepth and
// doubles when a stack outgrows it, capped at MaxWays. Depth is storage, not
// behaviour — a stack holds exactly the tags it would in a fully provisioned
// array.
//
// DELTA uses the *coarse-grained* variant (Section II-B3): hit counters are
// kept at a granularity of several ways (4 in the paper), which reduces
// counter overhead; the curve is linearly interpolated inside a bucket.
package umon

import (
	"fmt"

	"delta/internal/slab"
)

// Config describes a monitor.
type Config struct {
	// MaxWays is the largest allocation, in ways, the monitor can evaluate.
	// One way corresponds to one way across an LLC bank's sets (32 KB for the
	// paper's 512-set banks).
	MaxWays int
	// Granularity groups hit counters: 1 = exact UMON, 4 = the paper's
	// coarse-grained UMON.
	Granularity int
	// SetBits is log2 of the number of LLC-bank sets used for set selection
	// (9 for 512-set banks).
	SetBits int
	// SampleEvery selects one of every SampleEvery sets for monitoring
	// (dynamic set sampling). Must be a power of two and <= 1<<SetBits.
	SampleEvery int
}

// DefaultConfig mirrors the paper's setup for a given maximum allocation.
func DefaultConfig(maxWays int) Config {
	return Config{MaxWays: maxWays, Granularity: 4, SetBits: 9, SampleEvery: 32}
}

// Monitor is one core's UMON. Not safe for concurrent use.
type Monitor struct {
	cfg     Config
	buckets int
	scale   float64 // multiply sampled counts to estimate full-cache counts

	// stacks[i] is the LRU stack (most-recent first) for sampled set i: a
	// view into slot i of slab, which holds len(stacks) depth-word slots;
	// each view's capacity ends at its slot's end.
	stacks [][]uint64
	slab   []uint64
	depth  int

	// Cumulative counters; Epoch() snapshots and diffs them.
	hits     []float64 // per bucket, scaled
	misses   float64   // accesses deeper than MaxWays or cold, scaled
	accesses float64   // scaled

	lastHits     []float64
	lastMisses   float64
	lastAccesses float64
}

// New builds a monitor.
func New(cfg Config) *Monitor {
	if cfg.MaxWays <= 0 || cfg.Granularity <= 0 || cfg.SetBits <= 0 || cfg.SampleEvery <= 0 {
		panic(fmt.Sprintf("umon: invalid config %+v", cfg))
	}
	if cfg.SampleEvery&(cfg.SampleEvery-1) != 0 {
		panic("umon: SampleEvery must be a power of two")
	}
	sets := 1 << cfg.SetBits
	if cfg.SampleEvery > sets {
		panic("umon: SampleEvery exceeds set count")
	}
	nSampled := sets / cfg.SampleEvery
	buckets := (cfg.MaxWays + cfg.Granularity - 1) / cfg.Granularity
	m := &Monitor{
		cfg:      cfg,
		buckets:  buckets,
		scale:    float64(cfg.SampleEvery),
		stacks:   make([][]uint64, nSampled),
		hits:     make([]float64, buckets),
		lastHits: make([]float64, buckets),
	}
	m.grow(min(initialDepth, cfg.MaxWays))
	return m
}

// initialDepth is the per-stack slab depth a new monitor starts with.
const initialDepth = 8

// grow re-provisions the slab at the given per-stack depth (never below the
// deepest stack) and re-points every stack view into it, keeping contents.
// The outgrown slab is left to the garbage collector rather than the free
// list, so a monitor that is never released retains nothing extra.
func (m *Monitor) grow(depth int) {
	next := slab.Words(len(m.stacks) * depth)
	for i, st := range m.stacks {
		lo := i * depth
		n := copy(next[lo:lo+depth], st)
		m.stacks[i] = next[lo : lo+n : lo+depth]
	}
	m.slab, m.depth = next, depth
}

// Release hands the monitor's stack slab to the free list for reuse by
// monitors built later, and drops it with every view into it: the monitor
// must not be used again. Releasing twice returns nothing the second time.
func (m *Monitor) Release() {
	slab.PutWords(m.slab)
	m.slab, m.stacks = nil, nil
}

// MaxWays returns the largest allocation the monitor evaluates.
func (m *Monitor) MaxWays() int { return m.cfg.MaxWays }

// TagEntries returns the number of shadow tags the modelled hardware
// provisions (MaxWays per sampled set), whatever depth the slab has grown
// to; used by the overhead analysis.
func (m *Monitor) TagEntries() int { return len(m.stacks) * m.cfg.MaxWays }

// Access feeds one LLC-bound access (an L2 miss) into the monitor.
func (m *Monitor) Access(lineAddr uint64) {
	set := lineAddr & uint64(1<<m.cfg.SetBits-1)
	if set&(uint64(m.cfg.SampleEvery)-1) != 0 {
		return // not a sampled set
	}
	k := set / uint64(m.cfg.SampleEvery)
	stack := m.stacks[k]
	m.accesses += m.scale
	// Search the LRU stack.
	depth := -1
	for i, tag := range stack {
		if tag == lineAddr {
			depth = i
			break
		}
	}
	if depth >= 0 {
		m.hits[depth/m.cfg.Granularity] += m.scale
		// Move to front.
		copy(stack[1:depth+1], stack[:depth])
		stack[0] = lineAddr
	} else {
		m.misses += m.scale
		if n := len(stack); n < m.cfg.MaxWays {
			if n == cap(stack) {
				m.grow(min(2*m.depth, m.cfg.MaxWays))
				stack = m.stacks[k]
			}
			stack = stack[:n+1]
		}
		copy(stack[1:], stack)
		stack[0] = lineAddr
		m.stacks[k] = stack
	}
}

// Seed overwrites the monitor's cumulative counters with an analytically
// derived observation window, as if it had already watched `accesses`
// LLC-bound accesses of which hits[b] hit at bucket-b stack depths and
// `misses` missed. The fast-forward path uses it to stand in for simulated
// warmup: the first Epoch after seeding returns exactly the seeded curve.
// The shadow-tag stacks are left empty and rebuild online within a few
// hundred post-seed accesses (the slab keeps its depth); counters passed here
// must already be full-cache estimates (Seed applies no sampling scale).
func (m *Monitor) Seed(hits []float64, misses, accesses float64) {
	if len(hits) > m.buckets {
		panic(fmt.Sprintf("umon: seed with %d buckets, monitor has %d", len(hits), m.buckets))
	}
	for b := range m.hits {
		m.hits[b] = 0
		m.lastHits[b] = 0
		if b < len(hits) {
			m.hits[b] = hits[b]
		}
	}
	m.misses = misses
	m.accesses = accesses
	m.lastMisses = 0
	m.lastAccesses = 0
	for i := range m.stacks {
		m.stacks[i] = m.stacks[i][:0]
	}
}

// Reset returns the monitor to its just-constructed state: shadow-tag stacks
// emptied (the slab keeps its depth) and every cumulative counter (and the
// Epoch window baseline) zeroed. The chip calls it when a tile's workload changes — arrival,
// departure or migration — so the first post-event Epoch reflects only the
// new occupant's accesses rather than diffing against a dead window.
func (m *Monitor) Reset() {
	for b := range m.hits {
		m.hits[b] = 0
		m.lastHits[b] = 0
	}
	m.misses = 0
	m.accesses = 0
	m.lastMisses = 0
	m.lastAccesses = 0
	for i := range m.stacks {
		m.stacks[i] = m.stacks[i][:0]
	}
}

// Curve is a miss curve over possible way allocations, in estimated absolute
// miss counts for one observation window. Misses(w) is the predicted number
// of misses the application would have suffered with w ways.
type Curve struct {
	// CumHits[b] is the estimated number of hits at stack depth
	// < (b+1)*Granularity.
	CumHits     []float64
	Granularity int
	MaxWays     int
	Accesses    float64
}

// Epoch returns the curve accumulated since the previous Epoch call and
// starts a new window.
func (m *Monitor) Epoch() Curve {
	c := Curve{
		CumHits:     make([]float64, m.buckets),
		Granularity: m.cfg.Granularity,
		MaxWays:     m.cfg.MaxWays,
		Accesses:    m.accesses - m.lastAccesses,
	}
	run := 0.0
	for b := 0; b < m.buckets; b++ {
		run += m.hits[b] - m.lastHits[b]
		c.CumHits[b] = run
	}
	copy(m.lastHits, m.hits)
	m.lastMisses = m.misses
	m.lastAccesses = m.accesses
	return c
}

// PeekCurve returns the cumulative (since construction) curve without
// resetting the window; tests and the centralized warm-up path use it.
func (m *Monitor) PeekCurve() Curve {
	c := Curve{
		CumHits:     make([]float64, m.buckets),
		Granularity: m.cfg.Granularity,
		MaxWays:     m.cfg.MaxWays,
		Accesses:    m.accesses,
	}
	run := 0.0
	for b := 0; b < m.buckets; b++ {
		run += m.hits[b]
		c.CumHits[b] = run
	}
	return c
}

// Misses returns the predicted miss count with w ways. Within a coarse
// bucket the hit counts are linearly interpolated, matching the paper's
// coarse-grained UMON behaviour. w == 0 predicts every access missing.
func (c Curve) Misses(w int) float64 {
	if w <= 0 {
		return c.Accesses
	}
	if w >= c.MaxWays {
		w = c.MaxWays
	}
	g := c.Granularity
	b := w / g
	var hits float64
	switch {
	case b == 0:
		hits = c.CumHits[0] * float64(w) / float64(g)
	case w%g == 0:
		hits = c.CumHits[b-1]
	default:
		lo := c.CumHits[b-1]
		hi := c.CumHits[min(b, len(c.CumHits)-1)]
		hits = lo + (hi-lo)*float64(w%g)/float64(g)
	}
	misses := c.Accesses - hits
	if misses < 0 {
		return 0
	}
	return misses
}

// MissesAvoided returns how many misses would be avoided by growing an
// allocation from cur to cur+delta ways — the `a` term of the gain formula.
func (c Curve) MissesAvoided(cur, delta int) float64 {
	v := c.Misses(cur) - c.Misses(cur+delta)
	if v < 0 {
		return 0
	}
	return v
}

// MissesIncurred returns how many extra misses shrinking from cur to
// cur-delta ways would cost — the `a` term of the pain formula.
func (c Curve) MissesIncurred(cur, delta int) float64 {
	lo := cur - delta
	if lo < 0 {
		lo = 0
	}
	v := c.Misses(lo) - c.Misses(cur)
	if v < 0 {
		return 0
	}
	return v
}

// Empty reports whether the window saw no accesses.
func (c Curve) Empty() bool { return c.Accesses == 0 }

// Scale returns a copy of the curve with all counts multiplied by f; used to
// convert raw window counts into MPKI given instructions retired.
func (c Curve) Scale(f float64) Curve {
	out := Curve{
		CumHits:     make([]float64, len(c.CumHits)),
		Granularity: c.Granularity,
		MaxWays:     c.MaxWays,
		Accesses:    c.Accesses * f,
	}
	for i, v := range c.CumHits {
		out.CumHits[i] = v * f
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
