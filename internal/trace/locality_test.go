package trace

import (
	"math"
	"slices"
	"testing"
)

func TestRegionLocality(t *testing.T) {
	g := NewRegionGen(100, 1000, 1)
	if got := g.CumDistance(500); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CumDistance(500) = %v, want 0.5", got)
	}
	if got := g.CumDistance(5000); got != 1 {
		t.Fatalf("CumDistance beyond footprint = %v, want 1", got)
	}
	// WindowFor inverts DistinctIn.
	for _, k := range []float64{10, 400, 900} {
		n := g.WindowFor(k)
		if got := g.DistinctIn(n); math.Abs(got-k) > 1e-6 {
			t.Fatalf("DistinctIn(WindowFor(%v)) = %v", k, got)
		}
	}
	if !math.IsInf(g.WindowFor(1000), 1) {
		t.Fatal("WindowFor at footprint must be +Inf")
	}
	hot := g.AppendHotLines(nil, 5, new(HotScratch))
	if len(hot) != 5 || hot[0] != 100 {
		t.Fatalf("AppendHotLines = %v", hot)
	}
}

func TestStreamLocality(t *testing.T) {
	g := NewStreamGen(0, 100)
	if g.CumDistance(98) != 0 || g.CumDistance(99) != 1 {
		t.Fatal("stream distance must step at Size-1")
	}
	if g.DistinctIn(40) != 40 || g.DistinctIn(500) != 100 {
		t.Fatal("stream DistinctIn wrong")
	}
	// Cursor-relative recency: after 3 accesses the hottest line is 2.
	g.Next()
	g.Next()
	g.Next()
	hot := g.AppendHotLines(nil, 3, new(HotScratch))
	if hot[0] != 2 || hot[1] != 1 || hot[2] != 0 {
		t.Fatalf("AppendHotLines after 3 accesses = %v", hot)
	}
}

func TestStackDistLocality(t *testing.T) {
	g := NewStackDistGen(0, []float64{0.5, 0.2, 0.1}, 1)
	if got := g.CumDistance(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CumDistance(0) = %v", got)
	}
	if got := g.CumDistance(100); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("CumDistance beyond table = %v, want 0.8", got)
	}
	if got := g.AppendHotLines(nil, 4, new(HotScratch)); len(got) != 0 {
		t.Fatalf("cold generator reported hot lines %v", got)
	}
	for i := 0; i < 50; i++ {
		g.Next()
	}
	hot := g.AppendHotLines(nil, 4, new(HotScratch))
	if len(hot) == 0 {
		t.Fatal("warm generator reported no hot lines")
	}
}

func TestLocalityOfUnwrapping(t *testing.T) {
	base := NewRegionGen(0, 64, 1)
	shaped := NewShaper(base, ShaperConfig{MemFraction: 0.25, Seed: 1})
	if loc, ok := LocalityOf(shaped); !ok || loc != Locality(base) {
		t.Fatal("shaper must unwrap to its inner model")
	}
	phased := NewPhasedGen(Phase{Gen: shaped, Accesses: 100})
	if _, ok := LocalityOf(phased); !ok {
		t.Fatal("phase schedule must expose its current phase's model")
	}
	if _, ok := LocalityOf(opaque{}); ok {
		t.Fatal("custom generator must have no model")
	}
	mixed := NewMixtureGen(1,
		Component{Gen: base, Weight: 1},
		Component{Gen: opaque{}, Weight: 1},
	)
	if _, ok := LocalityOf(mixed); ok {
		t.Fatal("mixture with an unmodeled component must have no model")
	}
	if rate := AccessRateOf(shaped); math.Abs(rate-0.25) > 1e-12 {
		t.Fatalf("shaper access rate = %v, want MemFraction", rate)
	}
}

type opaque struct{}

func (opaque) Next() Access { return Access{} }

// TestMixtureCumDistanceEmpirical validates the interleaving composition
// against ground truth: the analytical CDF of a region+region+stream mixture
// must track the stack-distance CDF measured over the generator's own output.
func TestMixtureCumDistanceEmpirical(t *testing.T) {
	g := NewMixtureGen(7,
		Component{Gen: NewRegionGen(0, 512, 11), Weight: 0.5},
		Component{Gen: NewRegionGen(1<<20, 2048, 13), Weight: 0.3},
		Component{Gen: NewStreamGen(1<<30, 1<<16), Weight: 0.2},
	)
	const accesses = 60_000
	// Naive LRU stack over the emitted stream.
	var stack []uint64
	counts := make(map[int]int) // distance -> hits
	warmTotal := 0              // warm-window accesses, cold ones included
	for i := 0; i < accesses; i++ {
		line := g.Next().Line
		if i > accesses/4 { // skip the cold ramp
			warmTotal++
		}
		depth := -1
		for j, l := range stack {
			if l == line {
				depth = j
				break
			}
		}
		if depth >= 0 {
			copy(stack[1:depth+1], stack[:depth])
			stack[0] = line
			if i > accesses/4 {
				counts[depth]++
			}
		} else {
			stack = append(stack, 0)
			copy(stack[1:], stack)
			stack[0] = line
		}
	}
	// Empirical CDF over all warm-window accesses: cold accesses (the stream
	// tail never re-touches a line within the window) count in the
	// denominator, matching CumDistance's convention that mass never reaching
	// a finite distance is absent from the limit.
	cdf := func(d int) float64 {
		hits := 0
		for dist, n := range counts {
			if dist <= d {
				hits += n
			}
		}
		return float64(hits) / float64(warmTotal)
	}
	for _, d := range []float64{256, 1024, 4096} {
		got := g.CumDistance(d)
		want := cdf(int(d))
		if math.Abs(got-want) > 0.10 {
			t.Errorf("CumDistance(%v) = %.3f, measured %.3f (diverges > 0.10)", d, got, want)
		}
	}
}

func TestMixtureHotLines(t *testing.T) {
	g := NewMixtureGen(3,
		Component{Gen: NewRegionGen(0, 16, 1), Weight: 0.9},
		Component{Gen: NewRegionGen(1000, 10000, 2), Weight: 0.1},
	)
	hot := g.AppendHotLines(nil, 32, new(HotScratch))
	if len(hot) != 32 {
		t.Fatalf("got %d hot lines", len(hot))
	}
	// The small, heavily weighted region must dominate the hottest prefix.
	small := 0
	for _, l := range hot[:16] {
		if l < 16 {
			small++
		}
	}
	if small < 12 {
		t.Fatalf("hot prefix has only %d/16 lines from the hot region: %v", small, hot[:16])
	}
}

// refHotLines is the allocate-per-call hot-line enumeration AppendHotLines
// replaced, kept as the oracle for its exact output.
func refHotLines(loc Locality, n int) []uint64 {
	switch g := loc.(type) {
	case *RegionGen:
		if uint64(n) > g.Size {
			n = int(g.Size)
		}
		out := make([]uint64, n)
		for i := range out {
			out[i] = g.Base + uint64(i)
		}
		return out
	case *StreamGen:
		if uint64(n) > g.Size {
			n = int(g.Size)
		}
		out := make([]uint64, n)
		for i := range out {
			out[i] = g.Base + (g.pos+g.Size-1-uint64(i))%g.Size
		}
		return out
	case IdleGen:
		if n < 1 {
			return nil
		}
		return []uint64{0}
	case *StackDistGen:
		if n > g.depth {
			n = g.depth
		}
		// The i-th most recent line, selected through the Fenwick tree.
		out := make([]uint64, n)
		for i := range out {
			out[i] = g.Base + g.slotLine[g.bit.kth(g.depth-i)]
		}
		return out
	case *MixtureGen:
		type cursor struct {
			lines []uint64
			k     int
			loc   Locality
			w     float64
		}
		cur := make([]cursor, len(g.comps))
		for i := range g.comps {
			l := g.locality(i)
			cur[i] = cursor{lines: refHotLines(l, n), loc: l, w: g.weight(i)}
		}
		seen := make(map[uint64]bool, n)
		out := make([]uint64, 0, n)
		for len(out) < n {
			best, bestScore := -1, math.Inf(1)
			for i := range cur {
				c := &cur[i]
				if c.k >= len(c.lines) {
					continue
				}
				if score := c.loc.WindowFor(float64(c.k+1)) / c.w; score < bestScore {
					best, bestScore = i, score
				}
			}
			if best < 0 {
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
			line := cur[best].lines[cur[best].k]
			cur[best].k++
			if !seen[line] {
				seen[line] = true
				out = append(out, line)
			}
		}
		return out
	}
	panic("refHotLines: unknown model")
}

// hotLineModels covers every model AppendHotLines implements: the primitive
// generators (a stack-distance one after it has run), flat mixtures,
// mixtures reached through shapers and phase schedules, a mixture nested in
// a mixture, and overlapping components whose lines the merge must dedupe.
func hotLineModels() map[string]Locality {
	warm := func(g Generator, n int) Generator {
		for i := 0; i < n; i++ {
			g.Next()
		}
		return g
	}
	stackDist := func(base uint64) *StackDistGen {
		return warm(NewStackDistGen(base, []float64{0.3, 0.2, 0.1, 0.05, 0.05}, 5), 4000).(*StackDistGen)
	}
	flat := NewMixtureGen(7,
		Component{Gen: NewRegionGen(0, 300, 1), Weight: 0.5},
		Component{Gen: warm(NewStreamGen(1<<30, 700), 950), Weight: 0.2},
		Component{Gen: stackDist(2 << 30), Weight: 0.3})
	inner := NewMixtureGen(8,
		Component{Gen: NewShaper(NewRegionGen(0, 200, 2), ShaperConfig{MemFraction: 0.3, Seed: 1}), Weight: 0.6},
		Component{Gen: stackDist(1 << 30), Weight: 0.4})
	nested := NewMixtureGen(9,
		Component{Gen: inner, Weight: 0.5},
		Component{Gen: NewPhasedGen(Phase{Gen: NewStreamGen(2<<30, 500), Accesses: 10}), Weight: 0.3},
		Component{Gen: NewMixtureGen(10,
			Component{Gen: NewRegionGen(3<<30, 64, 3), Weight: 1},
			Component{Gen: IdleGen{}, Weight: 1}), Weight: 0.2})
	overlap := NewMixtureGen(11,
		Component{Gen: NewRegionGen(0, 100, 1), Weight: 0.7},
		Component{Gen: warm(NewStreamGen(50, 100), 30), Weight: 0.3})
	return map[string]Locality{
		"region":    NewRegionGen(100, 1000, 1),
		"stream":    warm(NewStreamGen(0, 500), 777).(*StreamGen),
		"idle":      IdleGen{},
		"stackdist": stackDist(0),
		"flat":      flat,
		"nested":    nested,
		"overlap":   overlap,
	}
}

// TestAppendHotLinesMatchesReference: AppendHotLines returns exactly the
// lines of the allocate-per-call enumeration, in the same order, whether the
// scratch is fresh or warm from larger calls on other models, and it
// appends after whatever dst already holds.
func TestAppendHotLinesMatchesReference(t *testing.T) {
	models := hotLineModels()
	var shared HotScratch
	for _, name := range []string{"nested", "flat", "region", "stream", "idle", "stackdist", "overlap"} {
		loc := models[name]
		for _, n := range []int{0, 1, 7, 64, 333, 1200, 5000} {
			want := refHotLines(loc, n)
			if got := loc.AppendHotLines(nil, n, new(HotScratch)); !slices.Equal(got, want) {
				t.Fatalf("%s n=%d fresh scratch: got %d lines, want %d (or order differs)", name, n, len(got), len(want))
			}
			prefix := []uint64{42, 43}
			got := loc.AppendHotLines(prefix, n, &shared)
			if !slices.Equal(got[:2], []uint64{42, 43}) || !slices.Equal(got[2:], want) {
				t.Fatalf("%s n=%d warm scratch: got %d lines, want %d (or order differs)", name, n, len(got)-2, len(want))
			}
			if shared.depth != 0 {
				t.Fatalf("%s: scratch left at nesting depth %d", name, shared.depth)
			}
		}
	}
}

// TestAppendHotLinesAllocFree: with a warm scratch and a dst of sufficient
// capacity, a call allocates nothing.
func TestAppendHotLinesAllocFree(t *testing.T) {
	for name, loc := range hotLineModels() {
		var sc HotScratch
		dst := loc.AppendHotLines(nil, 2000, &sc)
		if allocs := testing.AllocsPerRun(10, func() {
			dst = loc.AppendHotLines(dst[:0], 2000, &sc)
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per warm call, want 0", name, allocs)
		}
	}
}
