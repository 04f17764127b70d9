package carma

import (
	"testing"

	"delta/internal/chip"
	"delta/internal/trace"
)

func policyForTest() *Policy {
	cfg := DefaultConfig()
	cfg.Interval = 20000 // time-compressed
	return New(cfg)
}

// loadAsymmetric: even cores run large cache-sensitive working sets, odd
// cores tiny ones — the hungry cores should buy capacity from the idle-rich.
func loadAsymmetric(c *chip.Chip) {
	for i := 0; i < 16; i++ {
		kb := 64
		if i%2 == 0 {
			kb = 1536
		}
		gen := trace.NewShaper(trace.NewRegionGen(0, trace.Lines(kb), uint64(i)+1),
			trace.ShaperConfig{MemFraction: 0.3, Burst: 4, Seed: uint64(i) + 1})
		c.SetWorkload(i, gen, true)
	}
}

// ownedWays returns core's chip-wide way holdings.
func ownedWays(p *Policy, core int) int {
	ways := 0
	for b := 0; b < p.n; b++ {
		ways += p.Ways(core, b)
	}
	return ways
}

func TestCarmaAuctionsMoveCapacityToHungryCores(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	ccfg.Quantum = 500
	ccfg.UmonSampleEvery = 4
	p := policyForTest()
	c := chip.New(ccfg, p)
	loadAsymmetric(c)
	c.Run(300000, 200000)
	if p.Stats.Auctions == 0 || p.Stats.LotsTraded == 0 {
		t.Fatalf("market never traded: %+v", p.Stats)
	}
	if p.Stats.CreditsSpent <= 0 {
		t.Fatalf("lots traded but no credits spent: %+v", p.Stats)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	hungry, tiny := 0, 0
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			hungry += ownedWays(p, i)
		} else {
			tiny += ownedWays(p, i)
		}
	}
	if hungry <= tiny {
		t.Fatalf("hungry cores own %d ways <= tiny cores' %d", hungry, tiny)
	}
}

func TestCarmaChecked(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	ccfg.Quantum = 500
	ccfg.UmonSampleEvery = 4
	ccfg.Check = true
	p := policyForTest()
	c := chip.New(ccfg, p)
	loadAsymmetric(c)
	c.Run(30000, 60000)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCarmaMembership(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	ccfg.Quantum = 500
	ccfg.UmonSampleEvery = 4
	p := policyForTest()
	c := chip.New(ccfg, p)
	loadAsymmetric(c)
	c.Run(200000, 150000)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Departure: the leaver's remote lots revert to their home cores and its
	// budget zeroes, so a dead core cannot squat capacity.
	p.WorkloadDeparted(0, 0)
	if p.Budget(0) != 0 {
		t.Fatalf("departed core kept budget %v", p.Budget(0))
	}
	for b := 0; b < 16; b++ {
		if b == 0 {
			continue
		}
		for l := p.cfg.ReserveLots; l < p.lots; l++ {
			if p.lotOwner[b][l] == 0 {
				t.Fatalf("departed core still owns bank %d lot %d", b, l)
			}
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after departure: %v", err)
	}
	// Migration: the thread's holdings (lots and budget) travel with it.
	before := ownedWays(p, 2)
	p.WorkloadMigrated(2, 0, 0)
	if p.Budget(2) != 0 {
		t.Fatalf("migration source kept budget %v", p.Budget(2))
	}
	// The destination inherits the source's whole non-reserved estate on top
	// of its own reserved lot, so it owns at least what the source had.
	if got := ownedWays(p, 0); got < before {
		t.Fatalf("destination owns %d ways, source had %d", got, before)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after migration: %v", err)
	}
}

func TestCarmaBudgetsStayBounded(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	ccfg.Quantum = 500
	ccfg.UmonSampleEvery = 4
	p := policyForTest()
	c := chip.New(ccfg, p)
	loadAsymmetric(c)
	c.Run(200000, 150000)
	for i := 0; i < 16; i++ {
		if b := p.Budget(i); b < 0 || b > p.cfg.MaxBudget {
			t.Fatalf("core %d budget %v out of [0, %v]", i, b, p.cfg.MaxBudget)
		}
	}
}

func TestCarmaCheckInvariantsDetectsCorruption(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	p := policyForTest()
	chip.New(ccfg, p)
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("healthy state rejected: %v", err)
	}
	// A reserved lot leaving home is the market's cardinal sin.
	p.lotOwner[3][0] = 7
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("stolen reserved lot not detected")
	}
	p.lotOwner[3][0] = 3
	p.budget[5] = -1
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("negative budget not detected")
	}
	p.budget[5] = 0
	p.SetOwner(2, 0, 3) // a way leaves its lot's owner
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("mask corruption not detected")
	}
}

func TestCarmaValidationPanics(t *testing.T) {
	cases := []func(){
		func() { New(Config{Interval: 0}) },
		func() {
			// 16 ways do not divide into lots of 5.
			p := New(Config{Interval: 1000, LotWays: 5})
			chip.New(chip.DefaultConfig(16), p)
		},
		func() {
			// Reserving every lot leaves nothing to auction.
			p := New(Config{Interval: 1000, LotWays: 4, ReserveLots: 4})
			chip.New(chip.DefaultConfig(16), p)
		},
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

func TestValidateWays(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		ways int
		ok   bool
	}{
		{Config{Interval: 1}, 16, true}, // defaults: 4-way lots, one reserved
		{Config{Interval: 1, LotWays: 5}, 16, false},
		{Config{Interval: 1, LotWays: 3}, 16, false},
		{Config{Interval: 1, ReserveLots: 4}, 16, false},
		{Config{Interval: 1, ReserveLots: 3}, 16, true},
		{Config{Interval: 1, LotWays: 8, ReserveLots: 2}, 16, false},
		{Config{Interval: 1, LotWays: 8}, 16, true},
		{Config{Interval: 1, LotWays: 4}, 4, false}, // a single lot is all reserve
	} {
		if err := tc.cfg.ValidateWays(tc.ways); (err == nil) != tc.ok {
			t.Errorf("%+v on %d ways: err = %v, want ok=%v", tc.cfg, tc.ways, err, tc.ok)
		}
	}
}
