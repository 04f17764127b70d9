package lfoc

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

// loadAsymmetric gives even cores large cache-sensitive working sets and odd
// cores tiny ones, the regime where clustering must separate the two.
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

func TestLFOCClustersAndReallocates(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	ccfg.Quantum = 500
	ccfg.UmonSampleEvery = 4
	p := policyForTest()
	c := chip.New(ccfg, p)
	loadAsymmetric(c)
	c.Run(300000, 200000)
	if p.Stats.Epochs == 0 || p.Stats.Reallocs == 0 {
		t.Fatalf("stats %+v", p.Stats)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Hungry apps earn exclusive singleton clusters; tiny apps stay penned in
	// the shared cluster where they cannot thrash anyone's partition.
	clusterOf, clusterWays := p.Clusters()
	promoted := 0
	for i := 0; i < 16; i += 2 {
		if clusterOf[i] != 0 {
			promoted++
		}
	}
	if promoted < 4 {
		t.Fatalf("only %d hungry apps promoted to singletons: %v", promoted, clusterOf)
	}
	for i := 1; i < 16; i += 2 {
		if clusterOf[i] != 0 {
			t.Fatalf("tiny app %d left the shared cluster: %v", i, clusterOf)
		}
	}
	// Exclusive capacity (the singletons' ways) must dominate the shared pool.
	exclusive := 0
	for k := 1; k < len(clusterWays); k++ {
		exclusive += clusterWays[k]
	}
	if exclusive <= clusterWays[0] {
		t.Fatalf("exclusive ways %d <= shared %d (%v)", exclusive, clusterWays[0], clusterWays)
	}
}

func TestLFOCChecked(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	ccfg.Quantum = 500
	ccfg.UmonSampleEvery = 4
	ccfg.Check = true
	p := policyForTest()
	c := chip.New(ccfg, p)
	loadAsymmetric(c)
	c.Run(30000, 60000)
	if p.Stats.Epochs == 0 {
		t.Fatalf("no epochs ran: %+v", p.Stats)
	}
}

func TestLFOCMembershipRecusters(t *testing.T) {
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
	// A departing sensitive app must lose its singleton and fold back into
	// the shared cluster as a light sharer; the partition must stay whole.
	p.WorkloadDeparted(0, 0)
	if p.Class(0) != ClassLight {
		t.Fatalf("departed core classified %d, want light", p.Class(0))
	}
	clusterOf, _ := p.Clusters()
	if clusterOf[0] != 0 {
		t.Fatalf("departed core kept cluster %d", clusterOf[0])
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after departure: %v", err)
	}
	// Migration carries the classification to the destination tile.
	p.WorkloadMigrated(2, 0, 0)
	if p.Class(2) != ClassLight {
		t.Fatalf("vacated source classified %d, want light", p.Class(2))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after migration: %v", err)
	}
}

func TestLFOCCheckInvariantsDetectsCorruption(t *testing.T) {
	ccfg := chip.DefaultConfig(16)
	p := policyForTest()
	chip.New(ccfg, p)
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("healthy state rejected: %v", err)
	}
	p.clusterWays[0]--
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("way-sum corruption not detected")
	}
	p.clusterWays[0]++
	p.masks[3] = 0
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("mask corruption not detected")
	}
}

// TestLFOCConfigValidate: the defaults are valid, and every knob out of
// range — an explicit 0 included — or a floor layout that overflows the
// banks is an error.
func TestLFOCConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if err := DefaultConfig().ValidateWays(16); err != nil {
		t.Fatalf("defaults on 16 ways: %v", err)
	}
	for i, mut := range []func(*Config){
		func(c *Config) { c.Interval = 0 },
		func(c *Config) { c.Smoothing = 0 },
		func(c *Config) { c.Smoothing = 2 },
		func(c *Config) { c.MaxClusters = 1 },
		func(c *Config) { c.SharedWays = 0 },
		func(c *Config) { c.SharedWays = -3 },
		func(c *Config) { c.MinClusterWays = -2 },
		func(c *Config) { c.LightFrac = 0 },
		func(c *Config) { c.FlatFrac = 1.5 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: %+v accepted", i, cfg)
		}
	}
	for i, mut := range []func(*Config){
		func(c *Config) { c.MinClusterWays = 40 },
		func(c *Config) { c.SharedWays = 17 },
		func(c *Config) { c.MaxClusters = 16 }, // 2 shared + 15 singleton ways
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.ValidateWays(16); err == nil {
			t.Errorf("geometry case %d: %+v accepted on 16 ways", i, cfg)
		}
	}
}
