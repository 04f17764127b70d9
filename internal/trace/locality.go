package trace

import (
	"math"
	"slices"
)

// This file gives generators an *analytical* self-description: closed-form
// stack-distance and footprint models that the chip's fast-forward mode uses
// to seed UMON counters and cache occupancy without simulating the warmup
// window. The models are exact for the primitive generators (region, stream)
// and principled approximations for compositions; the fast-forward
// equivalence test bounds the end-to-end error against simulated warmup.

// Locality is the analytical model a generator can expose. All quantities are
// in lines and accesses of the generator's own stream (pacing gaps excluded).
type Locality interface {
	// CumDistance returns P(stack distance <= d) over the steady-state access
	// stream, monotone nondecreasing in d. Mass never reaching a finite
	// distance (cold misses, streaming tails larger than any cache) is simply
	// absent from the limit.
	CumDistance(d float64) float64
	// DistinctIn returns the expected number of distinct lines touched in a
	// window of n consecutive accesses.
	DistinctIn(n float64) float64
	// WindowFor inverts DistinctIn: the expected number of accesses needed to
	// touch k distinct lines, +Inf when k exceeds the reachable footprint.
	WindowFor(k float64) float64
	// AppendHotLines appends up to n distinct line addresses (generator
	// address space), ordered most-likely-resident first, to dst and returns
	// the extended slice. Composite models keep their working buffers in sc;
	// with a warm scratch and a dst of sufficient capacity the call does not
	// allocate.
	AppendHotLines(dst []uint64, n int, sc *HotScratch) []uint64
}

// HotScratch is the reusable working memory of AppendHotLines: for each
// mixture nesting level, the components' hot-line buffers and merge cursors
// and a dedupe set. The zero value is ready to use; buffers grow to the
// largest call seen and are cleared, not freed, between calls. A scratch
// serves one call at a time.
type HotScratch struct {
	levels []*hotLevel
	depth  int
}

// hotLevel is one mixture nesting level's share of a HotScratch.
type hotLevel struct {
	cur  []hotCursor
	seen map[uint64]struct{}
}

// hotCursor walks one mixture component's hot list during the merge.
type hotCursor struct {
	lines []uint64
	k     int
	loc   Locality
	w     float64
	score float64 // staleness of lines[k]; valid while k < len(lines)
}

// enter claims the next nesting level with comps cursors and an empty
// dedupe set; leave releases it.
func (sc *HotScratch) enter(comps int) *hotLevel {
	if sc.depth == len(sc.levels) {
		sc.levels = append(sc.levels, &hotLevel{seen: make(map[uint64]struct{})})
	}
	lv := sc.levels[sc.depth]
	sc.depth++
	lv.cur = slices.Grow(lv.cur[:0], comps)[:comps]
	clear(lv.seen)
	return lv
}

func (sc *HotScratch) leave() { sc.depth-- }

// LocalityOf resolves the analytical model of g, unwrapping pacing shapers
// and phase schedules and validating mixtures recursively. ok is false when
// any reachable leaf generator has no model (e.g. a custom Generator).
func LocalityOf(g Generator) (Locality, bool) {
	switch v := g.(type) {
	case *Shaper:
		return LocalityOf(v.inner)
	case *PhasedGen:
		// Warmup overwhelmingly samples the schedule's current phase; later
		// phases re-warm naturally as the simulation reaches them.
		return LocalityOf(v.phases[v.idx].Gen)
	case *MixtureGen:
		for _, c := range v.comps {
			if _, ok := LocalityOf(c.Gen); !ok {
				return nil, false
			}
		}
		return v, true
	case Locality:
		return v, true
	}
	return nil, false
}

// AccessRateOf returns the expected accesses per retired instruction of g's
// stream (each access retires one instruction plus its gap). Generators that
// emit gapless streams rate 1.
func AccessRateOf(g Generator) float64 {
	switch v := g.(type) {
	case *Shaper:
		return v.cfg.MemFraction
	case *PhasedGen:
		return AccessRateOf(v.phases[v.idx].Gen)
	case *MixtureGen:
		// Instructions per access average across components by weight.
		ipa := 0.0
		for i, c := range v.comps {
			ipa += v.weight(i) / AccessRateOf(c.Gen)
		}
		return 1 / ipa
	case IdleGen:
		return 1.0 / 100001
	}
	return 1
}

// --- RegionGen: uniform IRM over Size lines --------------------------------

// CumDistance: under uniform access the LRU stack is a uniform permutation of
// the region, so the requested line's depth is uniform over [0, Size).
func (g *RegionGen) CumDistance(d float64) float64 {
	if d <= 0 {
		return 0
	}
	if v := d / float64(g.Size); v < 1 {
		return v
	}
	return 1
}

// DistinctIn: coupon-collector expectation S(1 - e^{-n/S}).
func (g *RegionGen) DistinctIn(n float64) float64 {
	s := float64(g.Size)
	return s * (1 - math.Exp(-n/s))
}

// WindowFor inverts the coupon-collector curve.
func (g *RegionGen) WindowFor(k float64) float64 {
	s := float64(g.Size)
	if k >= s {
		return math.Inf(1)
	}
	if k <= 0 {
		return 0
	}
	return -s * math.Log(1-k/s)
}

// AppendHotLines: every line is equally hot; enumerate deterministically.
func (g *RegionGen) AppendHotLines(dst []uint64, n int, _ *HotScratch) []uint64 {
	if uint64(n) > g.Size {
		n = int(g.Size)
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, g.Base+uint64(i))
	}
	return dst
}

// --- StreamGen: sequential walk of period Size -----------------------------

// CumDistance: every reuse returns after touching the other Size-1 lines.
func (g *StreamGen) CumDistance(d float64) float64 {
	if d >= float64(g.Size-1) {
		return 1
	}
	return 0
}

// DistinctIn: a walk touches one new line per access until it wraps.
func (g *StreamGen) DistinctIn(n float64) float64 {
	if s := float64(g.Size); n > s {
		return s
	}
	return n
}

// WindowFor is the walk's identity up to its period.
func (g *StreamGen) WindowFor(k float64) float64 {
	if k > float64(g.Size) {
		return math.Inf(1)
	}
	return k
}

// AppendHotLines: most recently passed positions, walking backwards from
// the cursor (modulo the period).
func (g *StreamGen) AppendHotLines(dst []uint64, n int, _ *HotScratch) []uint64 {
	if uint64(n) > g.Size {
		n = int(g.Size)
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, g.Base+(g.pos+g.Size-1-uint64(i))%g.Size)
	}
	return dst
}

// --- IdleGen: a single spun-on line ----------------------------------------

// CumDistance: the one line always sits at depth zero.
func (IdleGen) CumDistance(d float64) float64 { return 1 }

// DistinctIn: the footprint is one line.
func (IdleGen) DistinctIn(n float64) float64 {
	if n > 1 {
		return 1
	}
	return n
}

// WindowFor: one access reaches the whole footprint.
func (IdleGen) WindowFor(k float64) float64 {
	if k > 1 {
		return math.Inf(1)
	}
	return k
}

// AppendHotLines appends the single spun-on line.
func (IdleGen) AppendHotLines(dst []uint64, n int, _ *HotScratch) []uint64 {
	if n < 1 {
		return dst
	}
	return append(dst, 0)
}

// --- StackDistGen: the distribution is the model ---------------------------

// CumDistance reads the construction-time distance table directly; new-line
// mass beyond the table never reaches a finite distance.
func (g *StackDistGen) CumDistance(d float64) float64 {
	if d < 0 {
		return 0
	}
	i := int(d)
	if i >= len(g.cum) {
		i = len(g.cum) - 1
	}
	return g.cum[i]
}

// newLineRate is the per-access probability of allocating a fresh line.
func (g *StackDistGen) newLineRate() float64 { return 1 - g.cum[len(g.cum)-1] }

// DistinctIn approximates the footprint as the resident reuse window (the
// table's span) plus cold growth at the new-line rate.
func (g *StackDistGen) DistinctIn(n float64) float64 {
	warm := float64(len(g.cum))
	if n < warm {
		return n
	}
	return warm + g.newLineRate()*(n-warm)
}

// WindowFor inverts DistinctIn's two-segment approximation.
func (g *StackDistGen) WindowFor(k float64) float64 {
	warm := float64(len(g.cum))
	if k <= warm {
		return k
	}
	r := g.newLineRate()
	if r <= 0 {
		return math.Inf(1)
	}
	return warm + (k-warm)/r
}

// AppendHotLines walks live slots newest-first; before the generator has run
// it has no footprint and appends nothing.
func (g *StackDistGen) AppendHotLines(dst []uint64, n int, _ *HotScratch) []uint64 {
	if n > g.depth {
		n = g.depth
	}
	dst = slices.Grow(dst, n)
	end := len(dst) + n
	for slot := g.now - 1; slot >= 0 && len(dst) < end; slot-- {
		if line := g.slotLine[slot]; line != deadSlot {
			dst = append(dst, g.Base+line)
		}
	}
	return dst
}

// --- MixtureGen: closed-form interleaving composition ----------------------

// weight returns component i's normalized selection probability.
func (g *MixtureGen) weight(i int) float64 {
	if i == 0 {
		return g.cum[0]
	}
	return g.cum[i] - g.cum[i-1]
}

// locality resolves component i's model; callers gate on LocalityOf first, so
// a missing model here is a programming error.
func (g *MixtureGen) locality(i int) Locality {
	loc, ok := LocalityOf(g.comps[i].Gen)
	if !ok {
		panic("trace: mixture component has no locality model; gate with LocalityOf")
	}
	return loc
}

// DistinctIn: components see disjoint slices of the window in proportion to
// their weights (distinct address spaces by construction of the app models).
func (g *MixtureGen) DistinctIn(n float64) float64 {
	total := 0.0
	for i := range g.comps {
		total += g.locality(i).DistinctIn(g.weight(i) * n)
	}
	return total
}

// WindowFor inverts DistinctIn by bisection (DistinctIn is monotone).
func (g *MixtureGen) WindowFor(k float64) float64 {
	if k <= 0 {
		return 0
	}
	hi := 1.0
	for g.DistinctIn(hi) < k {
		hi *= 2
		if math.IsInf(hi, 1) {
			return hi
		}
	}
	lo := 0.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if g.DistinctIn(mid) < k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// inflatedDistance maps component i's native stack distance to the
// interleaved stream's distance: the window long enough for component i to
// accumulate di distinct lines also interleaves every other component's
// distinct lines on top.
func (g *MixtureGen) inflatedDistance(i int, di float64) float64 {
	if di <= 0 {
		return 0
	}
	w := g.weight(i)
	t := g.locality(i).WindowFor(di) / w
	if math.IsInf(t, 1) {
		return t
	}
	d := di
	for j := range g.comps {
		if j != i {
			d += g.locality(j).DistinctIn(g.weight(j) * t)
		}
	}
	return d
}

// CumDistance composes the components: an interleaved distance <= d
// corresponds, per component, to the largest native distance whose inflation
// stays within d (found by bisection; inflatedDistance is monotone).
func (g *MixtureGen) CumDistance(d float64) float64 {
	if d <= 0 {
		return 0
	}
	total := 0.0
	for i := range g.comps {
		lo, hi := 0.0, d
		for it := 0; it < 50; it++ {
			mid := (lo + hi) / 2
			if g.inflatedDistance(i, mid) <= d {
				lo = mid
			} else {
				hi = mid
			}
		}
		total += g.weight(i) * g.locality(i).CumDistance(lo)
	}
	return total
}

// AppendHotLines merges component hot lists by expected residency:
// component i's k-th hottest line was last touched about WindowFor(k+1)/weight
// interleaved accesses ago, so the merge picks the globally smallest
// staleness next. A cursor's staleness depends only on its position, so it is
// recomputed only when that cursor advances.
func (g *MixtureGen) AppendHotLines(dst []uint64, n int, sc *HotScratch) []uint64 {
	lv := sc.enter(len(g.comps))
	defer sc.leave()
	cur := lv.cur
	for i := range cur {
		c := &cur[i]
		c.loc, c.w, c.k = g.locality(i), g.weight(i), 0
		c.lines = c.loc.AppendHotLines(c.lines[:0], n, sc)
		c.rescore()
	}
	for added := 0; added < n; {
		best, bestScore := -1, math.Inf(1)
		for i := range cur {
			c := &cur[i]
			if c.k < len(c.lines) && c.score < bestScore {
				best, bestScore = i, c.score
			}
		}
		if best < 0 {
			// All remaining scores are +Inf (cursors at their footprint
			// boundary); drain in component order rather than dropping lines.
			for i := range cur {
				if cur[i].k < len(cur[i].lines) {
					best = i
					break
				}
			}
			if best < 0 {
				break
			}
		}
		c := &cur[best]
		line := c.lines[c.k]
		c.k++
		c.rescore()
		if _, dup := lv.seen[line]; !dup {
			lv.seen[line] = struct{}{}
			dst = append(dst, line)
			added++
		}
	}
	return dst
}

// rescore caches the staleness of the cursor's current line.
func (c *hotCursor) rescore() {
	if c.k < len(c.lines) {
		c.score = c.loc.WindowFor(float64(c.k+1)) / c.w
	}
}
