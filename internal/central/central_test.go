package central

import (
	"testing"
	"testing/quick"

	"delta/internal/chip"
	"delta/internal/geom"
	"delta/internal/sim"
	"delta/internal/trace"
)

// kneeCurve misses fall linearly to zero at the knee, then stay flat.
func kneeCurve(maxWays, knee int, height float64) MissCurve {
	c := make(MissCurve, maxWays+1)
	for w := 0; w <= maxWays; w++ {
		if w < knee {
			c[w] = height * float64(knee-w) / float64(knee)
		}
	}
	return c
}

// flatCurve never benefits from capacity.
func flatCurve(maxWays int, height float64) MissCurve {
	c := make(MissCurve, maxWays+1)
	for w := range c {
		c[w] = height
	}
	return c
}

func TestLookaheadPrefersSensitiveApp(t *testing.T) {
	curves := []MissCurve{
		kneeCurve(32, 24, 1000), // hungry and sensitive
		flatCurve(32, 1000),     // insensitive
	}
	a := Lookahead(curves, 32, 1, 32)
	if a.Sum() > 32 {
		t.Fatalf("allocated %d ways over budget", a.Sum())
	}
	if a[0] < 20 {
		t.Fatalf("sensitive app got %d ways", a[0])
	}
	if a[1] > 12 {
		t.Fatalf("insensitive app got %d ways", a[1])
	}
}

func TestLookaheadRespectsMinAndMax(t *testing.T) {
	curves := []MissCurve{kneeCurve(64, 60, 5000), flatCurve(64, 10)}
	a := Lookahead(curves, 64, 4, 48)
	if a[1] < 4 {
		t.Fatalf("min violated: %v", a)
	}
	if a[0] > 48 {
		t.Fatalf("max violated: %v", a)
	}
}

func TestLookaheadHandlesCliffCurves(t *testing.T) {
	// Non-convex: no benefit until 16 ways, then everything. A myopic
	// 1-way-greedy allocator misses this; lookahead must not.
	cliff := make(MissCurve, 33)
	for w := 0; w <= 32; w++ {
		if w < 16 {
			cliff[w] = 1000
		}
	}
	curves := []MissCurve{cliff, kneeCurve(32, 4, 100)}
	a := Lookahead(curves, 24, 1, 32)
	if a[0] < 16 {
		t.Fatalf("cliff app got %d ways; lookahead failed to jump the plateau", a[0])
	}
}

func TestPeekaheadMatchesLookahead(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRng(seed)
		n := 2 + r.Intn(6)
		maxW := 32
		curves := SyntheticCurves(n, maxW, seed)
		total := n * 8
		la := Lookahead(curves, total, 1, maxW)
		pa := Peekahead(curves, total, 1, maxW)
		_ = la
		_ = pa
		// Allocations must achieve the same total utility (ties can be
		// broken differently, so compare achieved miss totals).
		mla, mpa := 0.0, 0.0
		for i := range curves {
			mla += curves[i][clamp(la[i], maxW)]
			mpa += curves[i][clamp(pa[i], maxW)]
		}
		diff := mla - mpa
		if diff < 0 {
			diff = -diff
		}
		scale := mla
		if scale < 1 {
			scale = 1
		}
		return diff/scale < 0.02 && la.Sum() == pa.Sum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorsStayWithinBudget(t *testing.T) {
	f := func(seed uint64) bool {
		curves := SyntheticCurves(4, 64, seed)
		la := Lookahead(curves, 64, 4, 64)
		pa := Peekahead(curves, 64, 4, 64)
		// Budget is an upper bound; ways with zero utility stay home.
		return la.Sum() <= 64 && pa.Sum() <= 64 && la.Sum() >= 16 && pa.Sum() >= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConvexHullSegmentsNonIncreasingRates(t *testing.T) {
	f := func(seed uint64) bool {
		curves := SyntheticCurves(1, 48, seed)
		segs := convexHullSegments(curves[0], 0, 48)
		for i := 1; i < len(segs); i++ {
			if segs[i].rate > segs[i-1].rate+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceHomeFirstAndLocal(t *testing.T) {
	topo := geom.NewMesh(4, 4)
	alloc := make(Alloc, 16)
	for i := range alloc {
		alloc[i] = 16
	}
	// App 5 demands 48 ways; three neighbours give up 32 between them.
	alloc[5] = 48
	alloc[1], alloc[4], alloc[6], alloc[9] = 8, 8, 8, 8
	pl := Place(alloc, topo, 16)
	if pl.Assign[5][5] != 16 {
		t.Fatalf("home bank claim %d", pl.Assign[5][5])
	}
	// Remote ways must all be at distance 1 (the four donors are adjacent).
	for b := 0; b < 16; b++ {
		if b != 5 && pl.Assign[b][5] > 0 {
			if topo.Dist(5, b) != 1 {
				t.Fatalf("app 5 placed at distance %d (bank %d)", topo.Dist(5, b), b)
			}
		}
	}
	// Capacity conservation per bank.
	for b := 0; b < 16; b++ {
		sum := 0
		for a := 0; a < 16; a++ {
			sum += pl.Assign[b][a]
		}
		if sum != 16 {
			t.Fatalf("bank %d assigned %d ways", b, sum)
		}
	}
}

func TestPlaceConservesAllWays(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRng(seed)
		topo := geom.NewMesh(4, 4)
		alloc := make(Alloc, 16)
		rem := 256
		for i := 0; i < 15; i++ {
			v := r.Intn(rem - (15 - i)) // leave at least 1 each
			if v > 64 {
				v = 64
			}
			alloc[i] = v
			rem -= v
		}
		alloc[15] = rem
		if alloc[15] > 64 {
			return true // skip infeasible corner
		}
		pl := Place(alloc, topo, 16)
		total := 0
		for b := 0; b < 16; b++ {
			sum := 0
			for a := 0; a < 16; a++ {
				if pl.Assign[b][a] < 0 {
					return false
				}
				sum += pl.Assign[b][a]
			}
			if sum != 16 {
				return false
			}
			total += sum
		}
		return total == 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func idealForTest() *Ideal {
	cfg := DefaultIdealConfig()
	cfg.Interval = 20000 // time-compressed
	return NewIdeal(cfg)
}

func TestIdealPolicyRunsAndReallocates(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	ccfg.Quantum = 500
	ccfg.UmonSampleEvery = 4
	p := idealForTest()
	c := chip.New(ccfg, p)
	for i := 0; i < 16; i++ {
		kb := 64
		if i%2 == 0 {
			kb = 1536
		}
		gen := trace.NewShaper(trace.NewRegionGen(0, trace.Lines(kb), uint64(i)+1),
			trace.ShaperConfig{MemFraction: 0.3, Burst: 4, Seed: uint64(i) + 1})
		c.SetWorkload(i, gen, true)
	}
	c.Run(300000, 200000)
	if p.Stats.Epochs == 0 || p.Stats.Reallocs == 0 {
		t.Fatalf("stats %+v", p.Stats)
	}
	// Hungry apps should end with more ways than tiny ones.
	hungry, tiny := 0.0, 0.0
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			hungry += p.AvgWays(i)
		} else {
			tiny += p.AvgWays(i)
		}
	}
	if hungry <= tiny {
		t.Fatalf("hungry avg %v <= tiny avg %v", hungry/8, tiny/8)
	}
}

func TestIdealBeatsSnucaOnAsymmetricMix(t *testing.T) {
	// Two 1.5 MB cache-sensitive apps sharing the chip with four streaming
	// thrashers and ten tiny apps: under the unpartitioned baseline the
	// streams continuously evict the sensitive apps' lines (and their L2
	// contents via inclusion); the centralized allocator pens the streams
	// into a few ways and gives the sensitive apps their working sets —
	// the regime where partitioning beats sharing.
	run := func(mk func() chip.Policy) float64 {
		ccfg := chip.DefaultConfig(16)
		ccfg.Quantum = 500
		ccfg.UmonSampleEvery = 4
		c := chip.New(ccfg, mk())
		for i := 0; i < 16; i++ {
			var gen trace.Generator
			switch {
			case i == 0 || i == 8:
				gen = trace.NewRegionGen(0, trace.Lines(1536), uint64(i)+1)
			case i%4 == 1:
				gen = trace.NewStreamGen(0, trace.Lines(32*1024))
			default:
				gen = trace.NewRegionGen(0, trace.Lines(64), uint64(i)+1)
			}
			shaped := trace.NewShaper(gen,
				trace.ShaperConfig{MemFraction: 0.3, Burst: 4, Seed: uint64(i) + 1})
			c.SetWorkload(i, shaped, true)
		}
		c.Run(400000, 200000)
		geo := 1.0
		for _, r := range c.Results() {
			geo *= r.IPC
		}
		return geo
	}
	ideal := run(func() chip.Policy { return idealForTest() })
	snuca := run(func() chip.Policy { return chip.NewSnuca() })
	if ideal <= snuca {
		t.Fatalf("ideal geo product %v <= snuca %v", ideal, snuca)
	}
}

func TestTimingGrowsWithCores(t *testing.T) {
	la4 := TimeAllocator(Lookahead, 4, 16, 1)
	la16 := TimeAllocator(Lookahead, 16, 16, 1)
	if la16.PerCall <= la4.PerCall {
		t.Fatalf("lookahead cost did not grow: %v vs %v", la4.PerCall, la16.PerCall)
	}
	pa16 := TimeAllocator(Peekahead, 16, 16, 1)
	if pa16.PerCall >= la16.PerCall {
		t.Fatalf("peekahead %v not cheaper than lookahead %v at 16 cores",
			pa16.PerCall, la16.PerCall)
	}
}

func TestValidationPanics(t *testing.T) {
	cases := []func(){
		func() { Lookahead(nil, 16, 1, 16) },
		func() { Lookahead([]MissCurve{{1}}, 16, 1, 16) },
		func() { Lookahead([]MissCurve{{2, 1}}, 0, 1, 16) },
		func() { Lookahead([]MissCurve{{2, 1}, {2, 1}}, 1, 1, 16) }, // budget < min
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

// TestIdealConfigValidate: the defaults are valid, and every knob out of
// range — an explicit 0 included, except MaxWays, where 0 is the chip's
// UMON limit — is an error.
func TestIdealConfigValidate(t *testing.T) {
	if err := DefaultIdealConfig().Validate(); err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if err := DefaultIdealConfig().ValidateWays(16); err != nil {
		t.Fatalf("defaults on 16 ways: %v", err)
	}
	for i, mut := range []func(*IdealConfig){
		func(c *IdealConfig) { c.Interval = 0 },
		func(c *IdealConfig) { c.MinWays = 0 },
		func(c *IdealConfig) { c.MaxWays = -4 },
		func(c *IdealConfig) { c.MaxWays = 2 }, // below MinWays
		func(c *IdealConfig) { c.Smoothing = 0 },
		func(c *IdealConfig) { c.MinChange = 0 },
		func(c *IdealConfig) { c.BenefitGate = 0 },
	} {
		cfg := DefaultIdealConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: %+v accepted", i, cfg)
		}
	}
	cfg := DefaultIdealConfig()
	cfg.MinWays = 17
	if err := cfg.ValidateWays(16); err == nil {
		t.Error("MinWays 17 accepted on 16-way banks")
	}
}

// TestIdealCheckInvariants proves the centralized policy's self-check is
// live: a healthy attach passes, and deliberate corruptions of the
// assignment matrix or the derived masks are reported.
func TestIdealCheckInvariants(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	ccfg.Quantum = 500
	p := idealForTest()
	chip.New(ccfg, p)
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("healthy state rejected: %v", err)
	}
	corruptions := []struct {
		name string
		mut  func()
		undo func()
	}{
		{"assignment sum broken", func() { p.assign[0][0]-- }, func() { p.assign[0][0]++ }},
		{"mask out of sync",
			func() { p.SetOwner(1, 0, chip.NoOwner) },
			func() { p.SetOwner(1, 0, 1) }},
		{"negative assignment", func() {
			p.assign[2][2] -= p.w + 1
			p.assign[2][3] += p.w + 1
		}, func() {
			p.assign[2][2] += p.w + 1
			p.assign[2][3] -= p.w + 1
		}},
	}
	for _, tc := range corruptions {
		tc.mut()
		if err := p.CheckInvariants(); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
		tc.undo()
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("%s: undo left state invalid: %v", tc.name, err)
		}
	}
}

// TestCheckedIdealRun runs the centralized policy under the full chip
// invariant sweep (quantum boundaries plus every reallocation's remap).
func TestCheckedIdealRun(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	ccfg.Quantum = 500
	ccfg.UmonSampleEvery = 4
	ccfg.Check = true
	p := idealForTest()
	c := chip.New(ccfg, p)
	for i := 0; i < 16; i++ {
		kb := 64
		if i%2 == 0 {
			kb = 1024
		}
		gen := trace.NewShaper(trace.NewRegionGen(0, trace.Lines(kb), uint64(i)+1),
			trace.ShaperConfig{MemFraction: 0.3, Burst: 4, Seed: uint64(i) + 1})
		c.SetWorkload(i, gen, true)
	}
	c.Run(30000, 60000)
	if p.Stats.Epochs == 0 {
		t.Fatalf("no epochs ran: %+v", p.Stats)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
