package bankbw

import (
	"testing"

	"delta/internal/chip"
	"delta/internal/trace"
)

func regulatorForTest() *Policy {
	return New(chip.NewSnuca(), DefaultConfig())
}

func smallGen(i int) trace.Generator {
	return trace.NewShaper(trace.NewRegionGen(0, trace.Lines(128), uint64(i)+1),
		trace.ShaperConfig{MemFraction: 0.3, Burst: 4, Seed: uint64(i) + 1})
}

// TestBankBWThrottlesHotBankHog drives evaluate directly with a synthetic
// window: one core hammers one bank far over its fair share while the rest
// trickle, so exactly that core must be throttled — and released once the
// next window cools down.
func TestBankBWThrottlesHotBankHog(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	p := regulatorForTest()
	c := chip.New(ccfg, p)
	for i := 0; i < 16; i++ {
		c.SetWorkload(i, smallGen(i), true)
	}
	// Core 3 delivers 10k of bank 5's 11k window accesses; every other bank
	// sees 100, far below the hot threshold.
	for b := 0; b < 16; b++ {
		p.acc[b][b] = 100
	}
	p.acc[5][3] = 10_000
	p.evaluate()
	if p.Throttle(3) != p.cfg.ThrottlePct {
		t.Fatalf("hog throttle %d%%, want %d%%", p.Throttle(3), p.cfg.ThrottlePct)
	}
	for i := 0; i < 16; i++ {
		if i != 3 && p.Throttle(i) != 100 {
			t.Fatalf("innocent core %d throttled to %d%%", i, p.Throttle(i))
		}
	}
	if p.Stats.Windows != 1 || p.Stats.Throttled != 1 {
		t.Fatalf("stats %+v", p.Stats)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A quiet follow-up window must release the throttle.
	p.evaluate()
	if p.Throttle(3) != 100 {
		t.Fatalf("throttle not released: %d%%", p.Throttle(3))
	}
}

// TestBankBWBalancedLoadNeverThrottles: a uniform access matrix has no hot
// bank, so regulation must stay entirely out of the way.
func TestBankBWBalancedLoadNeverThrottles(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	p := regulatorForTest()
	c := chip.New(ccfg, p)
	for i := 0; i < 16; i++ {
		c.SetWorkload(i, smallGen(i), true)
	}
	for b := 0; b < 16; b++ {
		for i := 0; i < 16; i++ {
			p.acc[b][i] = 1000
		}
	}
	p.evaluate()
	if p.Stats.Throttled != 0 {
		t.Fatalf("balanced load throttled %d core-windows", p.Stats.Throttled)
	}
}

// TestBankBWIdleNoiseExempt: banks under MinAccesses stay unregulated even
// when the skew is extreme (total load is near zero).
func TestBankBWIdleNoiseExempt(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	p := regulatorForTest()
	c := chip.New(ccfg, p)
	c.SetWorkload(0, smallGen(0), true)
	p.acc[0][0] = p.cfg.MinAccesses - 1 // all the chip's traffic, one bank
	p.evaluate()
	if p.Stats.Throttled != 0 {
		t.Fatalf("idle-phase noise throttled %d core-windows", p.Stats.Throttled)
	}
}

// TestBankBWRunsComposed runs the regulator over each base family end to end
// under the invariant harness: counting on the access path, window ticks and
// throttle application must all hold up inside a real simulation.
func TestBankBWRunsComposed(t *testing.T) {
	for _, base := range []chip.Policy{chip.NewSnuca(), chip.NewPrivate()} {
		p := New(base, DefaultConfig())
		ccfg := chip.DefaultConfig(16)
		ccfg.Quantum = 500
		ccfg.UmonSampleEvery = 4
		ccfg.Check = true
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
		c.Run(30000, 60000)
		if p.Stats.Windows == 0 {
			t.Fatalf("%s base: no windows evaluated: %+v", base.Name(), p.Stats)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("%s base: %v", base.Name(), err)
		}
	}
}

// TestBankBWMembershipClearsState: departures wipe the leaver's window
// counts and throttle; migration carries both to the destination tile.
func TestBankBWMembershipClearsState(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	p := regulatorForTest()
	c := chip.New(ccfg, p)
	for i := 0; i < 16; i++ {
		c.SetWorkload(i, smallGen(i), true)
	}
	p.acc[5][3] = 10_000
	p.throttle[3] = p.cfg.ThrottlePct
	p.WorkloadDeparted(3, 0)
	if p.acc[5][3] != 0 || p.Throttle(3) != 100 {
		t.Fatalf("departure left acc=%d throttle=%d", p.acc[5][3], p.Throttle(3))
	}
	p.acc[5][7] = 5_000
	p.throttle[7] = p.cfg.ThrottlePct
	p.WorkloadMigrated(7, 3, 0)
	if p.acc[5][3] != 5_000 || p.Throttle(3) != p.cfg.ThrottlePct {
		t.Fatalf("migration lost state: acc=%d throttle=%d", p.acc[5][3], p.Throttle(3))
	}
	if p.acc[5][7] != 0 || p.Throttle(7) != 100 {
		t.Fatalf("migration source not cleared: acc=%d throttle=%d", p.acc[5][7], p.Throttle(7))
	}
}

// TestBankBWValidationPanics: wrapping nothing, or another regulator, is a
// programming error New panics on.
func TestBankBWValidationPanics(t *testing.T) {
	cases := []func(){
		func() { New(nil, DefaultConfig()) },
		func() { New(regulatorForTest(), DefaultConfig()) }, // no stacking
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

// TestBankBWValidate: the defaults are valid, and every knob out of range
// — an explicit 0 included — is an error.
func TestBankBWValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("defaults: %v", err)
	}
	for i, mut := range []func(*Config){
		func(c *Config) { c.WindowQuanta = 0 },
		func(c *Config) { c.WindowQuanta = -1 },
		func(c *Config) { c.HeadroomPct = 50 },
		func(c *Config) { c.ThrottlePct = 0 },
		func(c *Config) { c.ThrottlePct = 101 },
		func(c *Config) { c.MinAccesses = 0 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: %+v accepted", i, cfg)
		}
	}
}
