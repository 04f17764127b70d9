package trace

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestRegionGenStaysInRegion(t *testing.T) {
	g := NewRegionGen(1000, 50, 1)
	for i := 0; i < 1000; i++ {
		a := g.Next()
		if a.Line < 1000 || a.Line >= 1050 {
			t.Fatalf("access %d outside region", a.Line)
		}
	}
}

func TestRegionGenCoversRegion(t *testing.T) {
	g := NewRegionGen(0, 16, 2)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[g.Next().Line] = true
	}
	if len(seen) != 16 {
		t.Fatalf("covered %d/16 lines", len(seen))
	}
}

func TestStreamGenSequentialAndWraps(t *testing.T) {
	g := NewStreamGen(100, 4)
	want := []uint64{100, 101, 102, 103, 100, 101}
	for i, w := range want {
		if got := g.Next().Line; got != w {
			t.Fatalf("access %d = %d, want %d", i, got, w)
		}
	}
}

func TestMixtureGenRespectsWeights(t *testing.T) {
	a := NewStreamGen(0, 1000000)
	b := NewStreamGen(1<<40, 1000000)
	g := NewMixtureGen(3, Component{a, 3}, Component{b, 1})
	inA := 0
	const n = 40000
	for i := 0; i < n; i++ {
		if g.Next().Line < 1<<40 {
			inA++
		}
	}
	frac := float64(inA) / n
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("component A fraction %v, want ~0.75", frac)
	}
}

func TestShaperInstructionMix(t *testing.T) {
	g := NewShaper(NewRegionGen(0, 100, 1), ShaperConfig{
		MemFraction: 0.25, WriteFraction: 0.3, Burst: 1, Seed: 5,
	})
	totalGap, writes := 0, 0
	const n = 50000
	for i := 0; i < n; i++ {
		a := g.Next()
		totalGap += a.Gap
		if a.Write {
			writes++
		}
	}
	instr := totalGap + n
	memFrac := float64(n) / float64(instr)
	if memFrac < 0.23 || memFrac > 0.27 {
		t.Fatalf("mem fraction %v, want ~0.25", memFrac)
	}
	wf := float64(writes) / n
	if wf < 0.27 || wf > 0.33 {
		t.Fatalf("write fraction %v, want ~0.3", wf)
	}
}

func TestShaperBurstsClusterAccesses(t *testing.T) {
	bursty := NewShaper(NewRegionGen(0, 100, 1), ShaperConfig{
		MemFraction: 0.25, Burst: 6, Seed: 7,
	})
	zeroGaps := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if bursty.Next().Gap == 0 {
			zeroGaps++
		}
	}
	// With mean burst 6, ~5/6 of accesses follow a predecessor immediately.
	frac := float64(zeroGaps) / n
	if frac < 0.7 {
		t.Fatalf("only %v of accesses in bursts, want >0.7", frac)
	}
}

func TestPhasedGenSwitchesAndCycles(t *testing.T) {
	g := NewPhasedGen(
		Phase{NewStreamGen(0, 10), 5},
		Phase{NewStreamGen(1000, 10), 5},
	)
	var lines []uint64
	for i := 0; i < 20; i++ {
		lines = append(lines, g.Next().Line)
	}
	for i := 0; i < 5; i++ {
		if lines[i] >= 1000 {
			t.Fatalf("phase 0 leaked: %v", lines[:5])
		}
	}
	for i := 5; i < 10; i++ {
		if lines[i] < 1000 {
			t.Fatalf("phase 1 missing: %v", lines[5:10])
		}
	}
	if g.Cycles != 1 {
		t.Fatalf("cycles = %d, want 1 full pass", g.Cycles)
	}
}

func TestStackDistGenReuse(t *testing.T) {
	// Always distance 0: after the first cold miss, the same line repeats.
	g := NewStackDistGen(0, []float64{1.0}, 1)
	first := g.Next().Line
	for i := 0; i < 100; i++ {
		if g.Next().Line != first {
			t.Fatal("distance-0 stream should repeat one line")
		}
	}
	if g.Depth() != 1 {
		t.Fatalf("depth %d", g.Depth())
	}
}

func TestStackDistGenDepthGrowth(t *testing.T) {
	// Zero probability mass -> every access is a new line.
	g := NewStackDistGen(0, []float64{0.0}, 2)
	seen := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		a := g.Next()
		if seen[a.Line] {
			t.Fatal("new-line stream repeated a line")
		}
		seen[a.Line] = true
	}
	if g.Depth() != 500 {
		t.Fatalf("depth %d, want 500", g.Depth())
	}
}

func TestStackDistGenExactDistance(t *testing.T) {
	// Distance exactly 1: alternates between two lines once both exist.
	dist := make([]float64, 2)
	dist[1] = 1.0
	g := NewStackDistGen(0, dist, 3)
	a := g.Next().Line // new (depth 0 < 1? depth=0, d=1 >= depth -> new)
	b := g.Next().Line // d=1 >= depth 1 -> new line again
	if a == b {
		t.Fatal("expected two distinct lines")
	}
	// From now on, distance 1 flips between the two.
	want := a
	for i := 0; i < 20; i++ {
		got := g.Next().Line
		if got != want {
			t.Fatalf("iteration %d: got %d want %d", i, got, want)
		}
		if want == a {
			want = b
		} else {
			want = a
		}
	}
}

func TestStackDistCompact(t *testing.T) {
	g := newStackDistGen(0, []float64{0.5, 0.25, 0.125}, 4, 256) // frequent compaction
	for i := 0; i < 10000; i++ {
		g.Next()
	}
	// Survival: depth grows only via the ~0.125 new-line tail.
	if g.Depth() < 100 {
		t.Fatalf("depth %d suspiciously small", g.Depth())
	}
}

// TestStackDistMatchesWideReference: a generator on the default slot space,
// which compacts and doubles as it deepens, draws the same stream as one on
// 1<<20 slots, which never compacts within 1M draws. Streams depend only on
// the order of the slots, not on their numbers.
func TestStackDistMatchesWideReference(t *testing.T) {
	const draws = 1_000_000
	shallow := make([]float64, 8) // 10% new lines: the slot space doubles
	for i := range shallow {
		shallow[i] = 0.9 / 8
	}
	deep := make([]float64, 200) // 0.2% new lines: compaction at a fixed size
	for i := range deep {
		deep[i] = 0.998 / 200
	}
	for name, dist := range map[string][]float64{"shallow": shallow, "deep": deep} {
		got := NewStackDistGen(0, slices.Clone(dist), 7)
		ref := newStackDistGen(0, slices.Clone(dist), 7, 1<<20)
		for i := 0; i < draws; i++ {
			if a, b := got.Next().Line, ref.Next().Line; a != b {
				t.Fatalf("%s: draw %d: line %d, reference %d", name, i, a, b)
			}
		}
		if got.Depth() != ref.Depth() {
			t.Fatalf("%s: depth %d, reference %d", name, got.Depth(), ref.Depth())
		}
		if len(got.slotLine) >= len(ref.slotLine) {
			t.Fatalf("%s: slot space grew to %d, the reference's size", name, len(got.slotLine))
		}
		a, b := got.AppendHotLines(nil, 1000, nil), ref.AppendHotLines(nil, 1000, nil)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: hot lines differ from the reference", name)
		}
	}
}

func TestFenwickKth(t *testing.T) {
	f := newFenwick(16)
	for _, s := range []int{2, 5, 9, 14} {
		f.add(s, 1)
	}
	for k, want := range map[int]int{1: 2, 2: 5, 3: 9, 4: 14} {
		if got := f.kth(k); got != want {
			t.Fatalf("kth(%d) = %d, want %d", k, got, want)
		}
	}
	f.add(5, -1)
	if got := f.kth(2); got != 9 {
		t.Fatalf("after removal kth(2) = %d, want 9", got)
	}
}

func TestSharedAppPrivateRatios(t *testing.T) {
	// No sharing at all: everything private.
	app := NewSharedApp(SharedConfig{
		Threads: 4, PrivateLines: 256, SharedFraction: 0, Seed: 1,
	})
	page, block := app.PrivateRatios(2000)
	if page != 1 || block != 1 {
		t.Fatalf("no-sharing ratios %v/%v, want 1/1", page, block)
	}
	// Heavy sharing: private ratios drop.
	shared := NewSharedApp(SharedConfig{
		Threads: 4, PrivateLines: 64,
		SharedBase: 0, SharedLines: 4096, SharedFraction: 0.9, Seed: 1,
	})
	page2, block2 := shared.PrivateRatios(5000)
	if page2 > 0.5 || block2 > 0.5 {
		t.Fatalf("high-sharing ratios %v/%v, want low", page2, block2)
	}
}

func TestSharedAppBoundaryPagesSplitPageBlock(t *testing.T) {
	// Boundary pages: block privacy should exceed page privacy (a few
	// shared lines poison whole pages), as in ocean.cont in Table V.
	app := NewSharedApp(SharedConfig{
		Threads: 4, PrivateLines: 1024,
		SharedBase: 0, SharedLines: 512, SharedFraction: 0.05,
		BoundaryPages: 8, Seed: 2,
	})
	page, block := app.PrivateRatios(20000)
	if block <= page {
		t.Fatalf("block privacy %v <= page privacy %v; boundary effect missing", block, page)
	}
}

func TestSharedAppDisjointPrivateSpaces(t *testing.T) {
	app := NewSharedApp(SharedConfig{
		Threads: 3, PrivateLines: 100,
		SharedBase: 0, SharedLines: 64, SharedFraction: 0.2, Seed: 3,
	})
	for t1 := 0; t1 < 3; t1++ {
		for t2 := t1 + 1; t2 < 3; t2++ {
			b1, b2 := app.privateBase(t1), app.privateBase(t2)
			lo, hi := b1, b2
			if lo > hi {
				lo, hi = hi, lo
			}
			if hi < lo+100 {
				t.Fatalf("private spaces overlap: %d %d", b1, b2)
			}
		}
	}
}

func TestIdleGen(t *testing.T) {
	g := IdleGen{}
	a := g.Next()
	if a.Gap < 1000 {
		t.Fatal("idle generator too chatty")
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { NewRegionGen(0, 0, 1) },
		func() { NewStreamGen(0, 0) },
		func() { NewMixtureGen(1) },
		func() { NewMixtureGen(1, Component{NewStreamGen(0, 1), 0}) },
		func() { NewShaper(NewStreamGen(0, 1), ShaperConfig{MemFraction: 0}) },
		func() { NewPhasedGen() },
		func() { NewPhasedGen(Phase{NewStreamGen(0, 1), 0}) },
		func() { NewStackDistGen(0, nil, 1) },
		func() { NewSharedApp(SharedConfig{Threads: 0, PrivateLines: 1}) },
		func() { NewSharedApp(SharedConfig{Threads: 1, PrivateLines: 1, SharedFraction: 0.5}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: the shaper preserves the underlying address stream.
func TestShaperPreservesAddresses(t *testing.T) {
	f := func(seed uint64) bool {
		raw := NewStreamGen(0, 97)
		shaped := NewShaper(NewStreamGen(0, 97), ShaperConfig{MemFraction: 0.3, Burst: 4, Seed: seed})
		for i := 0; i < 500; i++ {
			if raw.Next().Line != shaped.Next().Line {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: stack-distance generator's footprint equals cold misses; depth
// never exceeds the number of accesses.
func TestStackDistDepthBound(t *testing.T) {
	f := func(seed uint64, p8 uint8) bool {
		p := float64(p8%100) / 100
		g := NewStackDistGen(0, []float64{p}, seed)
		const n = 300
		for i := 0; i < n; i++ {
			g.Next()
		}
		return g.Depth() <= n && g.Depth() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
