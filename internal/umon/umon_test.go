package umon

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"delta/internal/sim"
)

// denseConfig samples every set so small synthetic streams are captured
// exactly.
func denseConfig(maxWays, gran int) Config {
	return Config{MaxWays: maxWays, Granularity: gran, SetBits: 4, SampleEvery: 1}
}

func TestMonitorCountsReuse(t *testing.T) {
	m := New(denseConfig(8, 1))
	// Two lines in the same set, accessed alternately: after warm-up every
	// access hits at depth 1 (needs 2 ways).
	for i := 0; i < 100; i++ {
		m.Access(0)  // set 0
		m.Access(16) // set 0 (SetBits=4 -> 16 sets)
	}
	c := m.Epoch()
	if c.Accesses != 200 {
		t.Fatalf("accesses = %v", c.Accesses)
	}
	// With 2+ ways nearly everything hits; with 1 way everything misses.
	if got := c.Misses(2); got > 3 {
		t.Fatalf("misses(2) = %v, want ~2 cold misses", got)
	}
	if got := c.Misses(1); got < 190 {
		t.Fatalf("misses(1) = %v, want ~200", got)
	}
}

func TestMissCurveMonotone(t *testing.T) {
	m := New(denseConfig(32, 4))
	r := sim.NewRng(1)
	for i := 0; i < 20000; i++ {
		m.Access(uint64(r.Intn(400)))
	}
	c := m.Epoch()
	for w := 1; w <= c.MaxWays; w++ {
		if c.Misses(w) > c.Misses(w-1)+1e-9 {
			t.Fatalf("curve not monotone at w=%d: %v > %v", w, c.Misses(w), c.Misses(w-1))
		}
	}
	if c.Misses(0) != c.Accesses {
		t.Fatalf("misses(0) = %v, want all accesses %v", c.Misses(0), c.Accesses)
	}
}

func TestWorkingSetKnee(t *testing.T) {
	// A working set of exactly 8 lines per set: with >=8 ways the stream
	// hits; with fewer it thrashes (cyclic access + LRU = worst case).
	m := New(denseConfig(16, 1))
	for rep := 0; rep < 50; rep++ {
		for l := 0; l < 8; l++ {
			m.Access(uint64(l * 16)) // all in set 0
		}
	}
	c := m.Epoch()
	if got := c.Misses(8); got > 9 {
		t.Fatalf("misses(8) = %v, want ~8 cold", got)
	}
	// Cyclic access with LRU: fewer than 8 ways gives ~0 hits.
	if got := c.Misses(7); got < float64(50*8)*0.95 {
		t.Fatalf("misses(7) = %v, want ~%v", got, 50*8)
	}
}

func TestEpochResetsWindow(t *testing.T) {
	m := New(denseConfig(8, 1))
	for i := 0; i < 50; i++ {
		m.Access(0)
	}
	first := m.Epoch()
	if first.Accesses != 50 {
		t.Fatalf("first window %v", first.Accesses)
	}
	second := m.Epoch()
	if !second.Empty() {
		t.Fatalf("second window not empty: %v", second.Accesses)
	}
	for i := 0; i < 10; i++ {
		m.Access(0)
	}
	third := m.Epoch()
	if third.Accesses != 10 {
		t.Fatalf("third window %v", third.Accesses)
	}
}

func TestSetSamplingScalesCounts(t *testing.T) {
	// With SampleEvery=4, only 1/4 of sets are observed but counts are
	// scaled back up; for a uniform stream the estimate should be close.
	exact := New(Config{MaxWays: 8, Granularity: 1, SetBits: 6, SampleEvery: 1})
	sampled := New(Config{MaxWays: 8, Granularity: 1, SetBits: 6, SampleEvery: 4})
	r := sim.NewRng(2)
	for i := 0; i < 100000; i++ {
		a := uint64(r.Intn(1 << 10))
		exact.Access(a)
		sampled.Access(a)
	}
	ce, cs := exact.Epoch(), sampled.Epoch()
	if cs.Accesses < ce.Accesses*0.8 || cs.Accesses > ce.Accesses*1.2 {
		t.Fatalf("sampled accesses %v vs exact %v", cs.Accesses, ce.Accesses)
	}
	for _, w := range []int{2, 4, 8} {
		e, s := ce.Misses(w), cs.Misses(w)
		if e == 0 {
			continue
		}
		if s < e*0.7 || s > e*1.3 {
			t.Fatalf("misses(%d): sampled %v vs exact %v", w, s, e)
		}
	}
}

func TestCoarseInterpolation(t *testing.T) {
	m := New(denseConfig(16, 4))
	r := sim.NewRng(3)
	for i := 0; i < 50000; i++ {
		m.Access(uint64(r.Intn(200)))
	}
	c := m.Epoch()
	// Interpolated points must lie between bucket endpoints.
	for _, w := range []int{1, 2, 3, 5, 6, 7} {
		lo := c.Misses((w/4 + 1) * 4)
		hi := c.Misses((w / 4) * 4)
		if c.Misses(w) < lo-1e-9 || c.Misses(w) > hi+1e-9 {
			t.Fatalf("misses(%d)=%v outside [%v,%v]", w, c.Misses(w), lo, hi)
		}
	}
}

func TestMissesAvoidedAndIncurred(t *testing.T) {
	m := New(denseConfig(16, 1))
	for rep := 0; rep < 100; rep++ {
		for l := 0; l < 6; l++ {
			m.Access(uint64(l * 16))
		}
	}
	c := m.Epoch()
	if got := c.MissesAvoided(4, 4); got <= 0 {
		t.Fatalf("growing past the knee should avoid misses, got %v", got)
	}
	if got := c.MissesAvoided(8, 4); got != 0 {
		t.Fatalf("growing beyond the working set avoids nothing, got %v", got)
	}
	if got := c.MissesIncurred(8, 4); got <= 0 {
		t.Fatalf("shrinking into the working set should hurt, got %v", got)
	}
	if got := c.MissesIncurred(16, 4); got != 0 {
		t.Fatalf("shrinking spare capacity is free, got %v", got)
	}
}

func TestScale(t *testing.T) {
	m := New(denseConfig(8, 1))
	for i := 0; i < 40; i++ {
		m.Access(0)
	}
	c := m.Epoch().Scale(0.5)
	if c.Accesses != 20 {
		t.Fatalf("scaled accesses %v", c.Accesses)
	}
	if c.Misses(0) != 20 {
		t.Fatalf("scaled misses(0) %v", c.Misses(0))
	}
}

func TestTagEntriesOverhead(t *testing.T) {
	m := New(Config{MaxWays: 192, Granularity: 4, SetBits: 9, SampleEvery: 32})
	if got := m.TagEntries(); got != 16*192 {
		t.Fatalf("tag entries %d", got)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{MaxWays: 0, Granularity: 1, SetBits: 4, SampleEvery: 1},
		{MaxWays: 8, Granularity: 1, SetBits: 4, SampleEvery: 3},
		{MaxWays: 8, Granularity: 1, SetBits: 2, SampleEvery: 8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %+v", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: for any access stream, the miss curve is monotone nonincreasing
// and bounded by [0, Accesses].
func TestCurveBoundsProperty(t *testing.T) {
	f := func(seed uint64, n uint16, span uint8) bool {
		m := New(denseConfig(16, 4))
		r := sim.NewRng(seed)
		width := int(span)%500 + 1
		for i := 0; i < int(n)%2000+10; i++ {
			m.Access(uint64(r.Intn(width)))
		}
		c := m.Epoch()
		prev := c.Accesses + 1e-9
		for w := 0; w <= c.MaxWays; w++ {
			v := c.Misses(w)
			if v < -1e-9 || v > c.Accesses+1e-9 || v > prev+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// paper64 is the 64-core chip's monitor geometry: allocations up to 768
// ways (24 MB), 512-set banks, one set in four sampled.
func paper64() Config { return Config{MaxWays: 768, Granularity: 4, SetBits: 9, SampleEvery: 4} }

// deepest returns the length of the monitor's longest stack.
func deepest(m *Monitor) int {
	d := 0
	for _, st := range m.stacks {
		d = max(d, len(st))
	}
	return d
}

// checkDepth asserts the slab's per-stack depth is exactly what doubling
// from initialDepth needs for the deepest stack: never past it (beyond one
// doubling) and never past MaxWays.
func checkDepth(t *testing.T, m *Monitor) {
	t.Helper()
	d := deepest(m)
	if m.depth > m.cfg.MaxWays {
		t.Fatalf("depth %d exceeds MaxWays %d", m.depth, m.cfg.MaxWays)
	}
	if d > m.depth {
		t.Fatalf("deepest stack %d overflows depth %d", d, m.depth)
	}
	if d <= initialDepth {
		if m.depth != min(initialDepth, m.cfg.MaxWays) {
			t.Fatalf("depth %d grew with deepest stack only %d", m.depth, d)
		}
	} else if m.depth/2 >= d {
		t.Fatalf("depth %d more than doubles deepest stack %d", m.depth, d)
	}
	for i, st := range m.stacks {
		if cap(st) != m.depth {
			t.Fatalf("stack %d has capacity %d, slab depth %d", i, cap(st), m.depth)
		}
	}
}

func TestStacksGrowOnDemand(t *testing.T) {
	m := New(paper64())
	if m.depth > 8 {
		t.Fatalf("fresh 64-core monitor starts at depth %d, want <= 8", m.depth)
	}
	checkDepth(t, m)
	if got, want := m.TagEntries(), 128*768; got != want {
		t.Fatalf("TagEntries %d, want the hardware's %d", got, want)
	}
	r := sim.NewRng(7)
	sets := uint64(1) << 9
	// Working sets of growing size per sampled set push the deepest stack
	// through every doubling and finally past MaxWays.
	for _, lines := range []uint64{4, 8, 9, 40, 300, 1000} {
		for i := 0; i < 4*int(lines)*16; i++ {
			m.Access(r.Uint64n(lines)*sets + uint64(r.Intn(16))*4)
		}
		checkDepth(t, m)
	}
	if deepest(m) != 768 || m.depth != 768 {
		t.Fatalf("deepest %d, depth %d; want both capped at 768", deepest(m), m.depth)
	}
	// Reset and Seed empty the stacks but keep the slab.
	m.Reset()
	if m.depth != 768 || deepest(m) != 0 {
		t.Fatalf("after Reset depth %d, deepest %d", m.depth, deepest(m))
	}
	m.Seed([]float64{1}, 2, 3)
	if m.depth != 768 || deepest(m) != 0 {
		t.Fatalf("after Seed depth %d, deepest %d", m.depth, deepest(m))
	}
}

func TestFreshSnapshotEncodesEmptyStacks(t *testing.T) {
	s := New(paper64()).Snapshot()
	if len(s.Stacks) != 128 {
		t.Fatalf("%d stacks, want 128", len(s.Stacks))
	}
	raw, err := json.Marshal(s.Stacks)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[" + strings.TrimSuffix(strings.Repeat("[],", 128), ",") + "]"; string(raw) != want {
		t.Fatalf("fresh stacks marshal as %s, want every stack []", raw)
	}
}

func TestRestoreDeeperSnapshot(t *testing.T) {
	cfg := Config{MaxWays: 64, Granularity: 4, SetBits: 4, SampleEvery: 2}
	// 12 lines per set needs one doubling, 50 needs three.
	for _, perSet := range []int{12, 50} {
		src := New(cfg)
		r := sim.NewRng(uint64(perSet))
		for i := 0; i < 20000; i++ {
			src.Access(uint64(r.Intn(16 * perSet)))
		}
		if src.depth <= initialDepth {
			t.Fatalf("source stayed at depth %d; the test needs a grown slab", src.depth)
		}
		snap := src.Snapshot()

		dst := New(cfg)
		if err := dst.Restore(snap); err != nil {
			t.Fatal(err)
		}
		checkDepth(t, dst)
		if !reflect.DeepEqual(dst.Snapshot(), snap) {
			t.Fatalf("%d lines/set: restored monitor does not snapshot back to the source", perSet)
		}
		// Both continue identically.
		for i := 0; i < 5000; i++ {
			a := uint64(r.Intn(16 * 80))
			src.Access(a)
			dst.Access(a)
		}
		if !reflect.DeepEqual(dst.Snapshot(), src.Snapshot()) {
			t.Fatalf("%d lines/set: restored monitor diverges from the source", perSet)
		}
		checkDepth(t, dst)
	}
}

// refMonitor is the reference model for Access: one move-to-front list per
// sampled set, each a plain slice searched linearly and truncated at
// MaxWays, with unscaled hit and miss counts.
type refMonitor struct {
	cfg    Config
	lists  map[uint64][]uint64
	hits   []int
	misses int
}

func (r *refMonitor) access(a uint64) {
	set := a % (1 << r.cfg.SetBits)
	if set%uint64(r.cfg.SampleEvery) != 0 {
		return
	}
	l := r.lists[set]
	for d, tag := range l {
		if tag == a {
			r.hits[d/r.cfg.Granularity]++
			r.lists[set] = append([]uint64{a}, append(l[:d:d], l[d+1:]...)...)
			return
		}
	}
	r.misses++
	l = append([]uint64{a}, l...)
	if len(l) > r.cfg.MaxWays {
		l = l[:r.cfg.MaxWays]
	}
	r.lists[set] = l
}

func TestAccessMatchesMoveToFrontReference(t *testing.T) {
	for _, cfg := range []Config{
		{MaxWays: 768, Granularity: 4, SetBits: 9, SampleEvery: 4},
		{MaxWays: 20, Granularity: 1, SetBits: 3, SampleEvery: 1},
		{MaxWays: 6, Granularity: 4, SetBits: 2, SampleEvery: 2},
	} {
		m := New(cfg)
		ref := &refMonitor{cfg: cfg, lists: map[uint64][]uint64{}, hits: make([]int, m.buckets)}
		r := sim.NewRng(uint64(cfg.MaxWays))
		sets := 1 << cfg.SetBits
		for i := 0; i < 60000; i++ {
			// A hot core, a warm region and cold singletons, so hits land
			// at every depth and some stacks overflow MaxWays.
			var a uint64
			switch x := r.Intn(10); {
			case x < 5:
				a = uint64(r.Intn(sets * 4))
			case x < 9:
				a = uint64(r.Intn(sets * cfg.MaxWays * 2))
			default:
				a = uint64(sets*cfg.MaxWays*4 + i)
			}
			m.Access(a)
			ref.access(a)
		}
		scale := float64(cfg.SampleEvery)
		for b, h := range ref.hits {
			if m.hits[b] != float64(h)*scale {
				t.Fatalf("%+v: bucket %d hits %v, reference %v", cfg, b, m.hits[b], float64(h)*scale)
			}
		}
		if m.misses != float64(ref.misses)*scale {
			t.Fatalf("%+v: misses %v, reference %v", cfg, m.misses, float64(ref.misses)*scale)
		}
		for k, st := range m.stacks {
			want := ref.lists[uint64(k*cfg.SampleEvery)]
			if len(st) != len(want) || (len(st) > 0 && !reflect.DeepEqual(st, want)) {
				t.Fatalf("%+v: stack %d = %v, reference %v", cfg, k, st, want)
			}
		}
		checkDepth(t, m)
	}
}

// TestReleasedSlabBuildsFreshMonitor: a monitor whose stacks grew deep is
// released; a monitor built next draws its slabs, equals a fresh one field
// for field, and grows through the released slabs exactly as a fresh one
// grows. The released monitor keeps no view into its slab. The race
// detector's pools drop puts at random, so the test repeats until a
// released slab is seen reused.
func TestReleasedSlabBuildsFreshMonitor(t *testing.T) {
	feed := func(m *Monitor, seed uint64, n int) {
		r := sim.NewRng(seed)
		for i := 0; i < n; i++ {
			m.Access(r.Uint64n(300)*512 + uint64(r.Intn(16))*4)
		}
	}
	reused := 0
	for i := 0; i < 10; i++ {
		old := New(paper64())
		feed(old, uint64(i+1), 30_000)
		if deepest(old) <= 4*initialDepth {
			t.Fatalf("stacks only %d deep", deepest(old))
		}
		grown := &old.slab[0]
		old.Release()
		if old.slab != nil || old.stacks != nil {
			t.Fatal("released monitor kept its slab or a view into it")
		}
		old.Release() // a second Release returns nothing

		m, fresh := New(paper64()), New(paper64())
		if !reflect.DeepEqual(m, fresh) {
			t.Fatal("monitor built on a released slab differs from a fresh one")
		}
		feed(m, 77, 30_000)
		feed(fresh, 77, 30_000)
		if &m.slab[0] == grown {
			reused++
		}
		if !reflect.DeepEqual(m.Snapshot(), fresh.Snapshot()) || !reflect.DeepEqual(m.PeekCurve(), fresh.PeekCurve()) {
			t.Fatal("monitor grown through released slabs diverges from a fresh one")
		}
		checkDepth(t, m)
		m.Release()
		fresh.Release()
	}
	if reused == 0 {
		t.Fatal("growth never drew a released slab")
	}
}
