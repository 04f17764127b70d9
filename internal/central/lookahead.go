// Package central implements the centralized allocation baselines the paper
// compares DELTA against:
//
//   - Lookahead — UCP's greedy marginal-utility allocator (Qureshi & Patt,
//     MICRO 2006), worst-case O(N·W²) per invocation.
//   - Peekahead — the convex-hull reformulation (Beckmann & Sanchez's
//     "Jigsaw"/PEEKahead lineage) that walks only the miss curves' convex
//     hulls, O(N·W) in the common case. Its allocations reach nearly the
//     same total misses as Lookahead's but are not identical: ties between
//     equal marginal rates break differently, which is why Ideal keeps
//     Lookahead.
//   - Ideal — a chip.Policy that recomputes Lookahead allocations plus
//     locality-aware placement every interval with *zero* computational
//     cost, the paper's upper bound for centralized schemes (Section
//     III-A). Enforcement (CBT + way masks + invalidations) is charged
//     exactly like DELTA's.
//
// The computational-overhead comparison of Table VI is produced by timing
// Lookahead and Peekahead on this machine for growing core counts.
package central

import "fmt"

// MissCurve is a dense miss curve: Miss[w] is the predicted number of misses
// with w ways allocated, for w in [0, len-1]. Curves must be non-increasing;
// allocators tolerate small monitor noise but not rising curves.
type MissCurve []float64

// Utility returns the miss reduction from growing an allocation from cur by
// block ways (the marginal utility of UCP, un-normalized).
func (m MissCurve) Utility(cur, block int) float64 {
	last := len(m) - 1
	a, b := clamp(cur, last), clamp(cur+block, last)
	u := m[a] - m[b]
	if u < 0 {
		return 0
	}
	return u
}

func clamp(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

// Alloc holds one allocation decision per application, in ways.
type Alloc []int

// Lookahead computes UCP's allocation: starting from minWays each, it
// repeatedly gives a block of ways to the application with the highest
// marginal utility per way, looking ahead across block sizes so that miss
// curves with plateaus followed by cliffs (non-convex) are handled. total is
// the chip-wide way budget; each app is capped at maxWays.
func Lookahead(curves []MissCurve, total, minWays, maxWays int) Alloc {
	n := len(curves)
	validate(curves, total, minWays, maxWays)
	alloc := make(Alloc, n)
	rem := total
	for i := range alloc {
		alloc[i] = minWays
		rem -= minWays
	}
	if rem < 0 {
		panic("central: budget below the per-app minimum")
	}
	for rem > 0 {
		bestApp, bestBlock := -1, 0
		bestRate := 0.0
		for i := 0; i < n; i++ {
			room := maxWays - alloc[i]
			if room > rem {
				room = rem
			}
			for b := 1; b <= room; b++ {
				rate := curves[i].Utility(alloc[i], b) / float64(b)
				if rate > bestRate {
					bestRate, bestApp, bestBlock = rate, i, b
				}
			}
		}
		if bestApp < 0 {
			break // no one benefits from more capacity
		}
		alloc[bestApp] += bestBlock
		rem -= bestBlock
	}
	// Ways nobody has positive utility for are NOT force-fed to random
	// applications: the placement layer leaves them with the home bank's
	// owner. A remote slice an app never asked for costs NoC latency and
	// associativity conflicts for zero predicted benefit.
	return alloc
}

// Peekahead approximates Lookahead's allocation by walking each curve's
// lower convex hull: hull segment slopes are the lookahead-optimal marginal
// rates, so a single pass over segments in slope order suffices. Ties break
// differently, so the two may split ways differently at near-equal total
// misses.
func Peekahead(curves []MissCurve, total, minWays, maxWays int) Alloc {
	n := len(curves)
	validate(curves, total, minWays, maxWays)
	alloc := make(Alloc, n)
	rem := total
	for i := range alloc {
		alloc[i] = minWays
		rem -= minWays
	}
	if rem < 0 {
		panic("central: budget below the per-app minimum")
	}
	// Per-app hull segments starting at minWays.
	segs := make([][]hullSeg, n)
	cursor := make([]int, n)
	for i, c := range curves {
		segs[i] = convexHullSegments(c, minWays, maxWays)
	}
	for rem > 0 {
		bestApp := -1
		bestRate := 0.0
		for i := 0; i < n; i++ {
			for cursor[i] < len(segs[i]) && segs[i][cursor[i]].end <= alloc[i] {
				cursor[i]++
			}
			if cursor[i] == len(segs[i]) {
				continue
			}
			if r := segs[i][cursor[i]].rate; r > bestRate && r > 0 {
				bestRate, bestApp = r, i
			}
		}
		if bestApp < 0 {
			break
		}
		s := segs[bestApp][cursor[bestApp]]
		take := s.end - alloc[bestApp]
		if take > rem {
			take = rem
		}
		alloc[bestApp] += take
		rem -= take
	}
	return alloc
}

type hullSeg struct {
	end  int     // allocation at the segment's right endpoint
	rate float64 // misses avoided per way along the segment
}

// convexHullSegments returns the lower convex hull of (w, miss[w]) between
// lo and hi as segments with non-increasing rates.
func convexHullSegments(m MissCurve, lo, hi int) []hullSeg {
	last := len(m) - 1
	if hi > last {
		hi = last
	}
	if lo >= hi {
		return nil
	}
	// Monotone-chain lower hull over the (non-increasing) curve.
	type pt struct {
		w int
		y float64
	}
	var hull []pt
	for w := lo; w <= hi; w++ {
		p := pt{w, m[w]}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Keep the hull convex from below: slope(a,b) <= slope(a,p).
			if (b.y-a.y)*float64(p.w-a.w) >= (p.y-a.y)*float64(b.w-a.w) {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}
	segsOut := make([]hullSeg, 0, len(hull)-1)
	for i := 1; i < len(hull); i++ {
		rate := (hull[i-1].y - hull[i].y) / float64(hull[i].w-hull[i-1].w)
		if rate < 0 {
			rate = 0
		}
		segsOut = append(segsOut, hullSeg{end: hull[i].w, rate: rate})
	}
	return segsOut
}

func validate(curves []MissCurve, total, minWays, maxWays int) {
	if len(curves) == 0 {
		panic("central: no curves")
	}
	if total <= 0 || minWays < 0 || maxWays < minWays {
		panic(fmt.Sprintf("central: invalid budget total=%d min=%d max=%d",
			total, minWays, maxWays))
	}
	for i, c := range curves {
		if len(c) < 2 {
			panic(fmt.Sprintf("central: curve %d too short", i))
		}
	}
}

// Sum returns the allocated way total.
func (a Alloc) Sum() int {
	s := 0
	for _, v := range a {
		s += v
	}
	return s
}
