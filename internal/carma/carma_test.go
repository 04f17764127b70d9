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

// TestCarmaValidationPanics: attaching to a chip whose banks the lot
// geometry does not fit panics (policies.Build reports the same as an
// error before any chip exists).
func TestCarmaValidationPanics(t *testing.T) {
	cases := []func(){
		func() {
			// 16 ways do not divide into lots of 5.
			cfg := DefaultConfig()
			cfg.LotWays = 5
			chip.New(chip.DefaultConfig(16), New(cfg))
		},
		func() {
			// Reserving every lot leaves nothing to auction.
			cfg := DefaultConfig()
			cfg.ReserveLots = 4
			chip.New(chip.DefaultConfig(16), New(cfg))
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

// TestValidate: the defaults are valid, and every knob out of range — an
// explicit 0 included — is an error.
func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("defaults: %v", err)
	}
	for i, mut := range []func(*Config){
		func(c *Config) { c.Interval = 0 },
		func(c *Config) { c.LotWays = 0 },
		func(c *Config) { c.LotWays = -1 },
		func(c *Config) { c.ReserveLots = 0 },
		func(c *Config) { c.MaxBudget = -5 },
		func(c *Config) { c.Regen = 0 },
		func(c *Config) { c.BidScale = 0 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: %+v accepted", i, cfg)
		}
	}
}

func TestValidateWays(t *testing.T) {
	with := func(lotWays, reserve int) Config {
		cfg := DefaultConfig()
		cfg.LotWays, cfg.ReserveLots = lotWays, reserve
		return cfg
	}
	for _, tc := range []struct {
		cfg  Config
		ways int
		ok   bool
	}{
		{DefaultConfig(), 16, true}, // 4-way lots, one reserved
		{with(5, 1), 16, false},
		{with(3, 1), 16, false},
		{with(4, 4), 16, false},
		{with(4, 3), 16, true},
		{with(8, 2), 16, false},
		{with(8, 1), 16, true},
		{with(4, 1), 4, false}, // a single lot is all reserve
	} {
		if err := tc.cfg.ValidateWays(tc.ways); (err == nil) != tc.ok {
			t.Errorf("%+v on %d ways: err = %v, want ok=%v", tc.cfg, tc.ways, err, tc.ok)
		}
	}
}
