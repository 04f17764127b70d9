// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section IV). Each driver returns a structured result
// plus a rendered text table, so the same code backs the delta-bench binary,
// the root-level testing.B benchmarks and EXPERIMENTS.md.
//
// All drivers run time-compressed simulations (DESIGN.md §3): instruction
// budgets and reconfiguration intervals are both scaled down from the
// paper's 500 M-instruction windows and 1 ms epochs, preserving the ratio of
// reconfiguration interval to workload phase length.
package experiments

import (
	"encoding/json"
	"fmt"

	"delta/internal/bankbw"
	"delta/internal/central"
	"delta/internal/chip"
	"delta/internal/core"
	"delta/internal/noc"
	"delta/internal/policies"
	"delta/internal/telemetry"
	"delta/internal/trace"
	"delta/internal/workloads"
)

const (
	// intervalScale divides the paper's reconfiguration intervals (1 ms
	// inter / 0.1 ms intra at 4 GHz): i_inter = 80k cycles, i_intra = 8k.
	intervalScale = 50
	// umonSampleEvery densifies UMON sampling to compensate for the short
	// windows (the paper's value is 32).
	umonSampleEvery = 4
)

// Scale fixes the time compression of a simulation campaign.
type Scale struct {
	// Warmup and Budget are per-application instruction counts (the paper's
	// 8 B fast-forward and 500 M detailed window, compressed).
	Warmup, Budget uint64
	// Seed drives workload generation.
	Seed uint64
	// Recorder, when non-nil, receives telemetry from every chip the scale
	// builds (events, per-quantum samples, end-of-run counters/gauges).
	Recorder telemetry.Recorder
	// Check enables the runtime invariant harness on every chip the scale
	// builds (chip.Config.Check).
	Check bool
	// FastForward replaces the simulated warmup with analytical seeding
	// (chip.FastForward): UMON counters and cache contents are derived from
	// the workloads' closed-form locality models and measurement starts
	// immediately, cutting campaign wall-clock roughly by the warmup share of
	// the instruction window.
	FastForward bool
	// Workers bounds how many simulations the campaign drivers (Suite
	// prefetching, Fig12, Fig13, Ablations, Churn, PolicyMatrix) run
	// concurrently. 0 or 1 runs sequentially; delta-bench wires its
	// -parallel flag (default runtime.NumCPU()) here. Results are
	// bit-identical at any worker count: each chip owns all of its mutable
	// state, including its seeded RNGs.
	Workers int
}

// DefaultScale is the compression used for EXPERIMENTS.md: runs stay within
// minutes while every app sees tens of reconfiguration epochs.
func DefaultScale() Scale {
	return Scale{Warmup: 400_000, Budget: 250_000, Seed: 1}
}

// QuickScale is a further-compressed variant for smoke tests and CI.
func QuickScale() Scale {
	s := DefaultScale()
	s.Warmup = 100_000
	s.Budget = 80_000
	return s
}

// For64 reduces the per-app window for 64-core runs, mirroring the paper's
// 125 M (vs 500 M) instruction methodology.
func (s Scale) For64() Scale {
	s.Warmup /= 2
	s.Budget /= 2
	return s
}

// PaperPolicies lists the four schemes of the paper's own evaluation
// (Figs. 5 and 9 compare exactly these).
var PaperPolicies = []string{"snuca", "private", "delta", "ideal"}

// NewPolicy constructs a policy by name at this scale through the registry.
// The special name "ideal-slow" is the ideal policy at the 100 ms-equivalent
// interval the Fig. 13 frequency study compares against.
func (s Scale) NewPolicy(name string) chip.Policy {
	// Bank associativity is Table II's at every core count.
	ctx := policies.BuildContext{IntervalScale: intervalScale, LLCWays: s.ChipConfig(1).LLCWays}
	if name == "ideal-slow" {
		name, ctx.Params = "ideal", idealSlowParams
	}
	p, err := policies.Build(name, ctx)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return p
}

// idealSlowParams sets the ideal policy's interval to 100 times the paper's
// 1 ms at this package's interval scale.
var idealSlowParams = json.RawMessage(fmt.Sprintf(`{"Interval": %d}`,
	central.DefaultIdealConfig().Interval*100/intervalScale))

// ChipConfig builds the chip configuration for the core count at this scale.
func (s Scale) ChipConfig(cores int) chip.Config {
	cfg := chip.DefaultConfig(cores)
	cfg.UmonSampleEvery = umonSampleEvery
	cfg.Seed = s.Seed
	cfg.Recorder = s.Recorder
	cfg.Check = s.Check
	return cfg
}

// MixRun is the outcome of one (policy, mix, chip) simulation. It is plain
// data: no run keeps its chip or policy reachable.
type MixRun struct {
	Policy  string
	Mix     workloads.Mix
	Cores   int
	Results []chip.CoreResult
	Net     noc.Stats
	Chip    chip.Stats
	// Traffic and Utilization are the chip's end-of-run traffic summary and
	// per-bank occupancy map.
	Traffic     chip.TrafficSummary
	Utilization string

	// Delta holds DELTA's reconfiguration counters (zero for other
	// policies). Ways is the LLC capacity each core was granted: DELTA's
	// final TotalWays or the ideal scheme's AvgWays; nil for other policies.
	Delta core.Stats
	Ways  []float64
}

// IPCs returns the per-core IPC vector.
func (r MixRun) IPCs() []float64 {
	out := make([]float64, len(r.Results))
	for i, cr := range r.Results {
		out[i] = cr.IPC
	}
	return out
}

// RunMix simulates one mix under one policy.
func (s Scale) RunMix(policy string, mix workloads.Mix, cores int) MixRun {
	run := s.simulate(s.ChipConfig(cores), s.NewPolicy(policy), mix.Generators(cores, s.Seed), true, nil)
	run.Policy, run.Mix, run.Cores = policy, mix, cores
	return run
}

// simulate is the package's one chip-run path. It builds the chip, loads one
// generator per core (each in its own address space when private), lets
// setup adjust the loaded chip, fast-forwards when the scale asks, runs the
// measured window and returns the outcome with Policy, Mix and Cores unset.
// The chip is released once its outcome is read, so a campaign's later runs
// reuse its arrays.
func (s Scale) simulate(cfg chip.Config, p chip.Policy, gens []trace.Generator, private bool, setup func(*chip.Chip)) MixRun {
	c := chip.New(cfg, p)
	defer c.Release()
	for i, g := range gens {
		c.SetWorkload(i, g, private)
	}
	if setup != nil {
		setup(c)
	}
	if s.FastForward {
		c.FastForward(s.Warmup)
	}
	c.Run(s.Warmup, s.Budget)
	run := MixRun{
		Results:     c.Results(),
		Net:         c.Net.Stats,
		Chip:        c.Stats,
		Traffic:     c.Traffic(),
		Utilization: c.UtilizationString(),
	}
	// Introspection sees through the bandwidth regulator to its base.
	switch inner := bankbw.Unwrap(p).(type) {
	case *core.Delta:
		run.Delta = inner.Stats
		for i := 0; i < cfg.Cores; i++ {
			run.Ways = append(run.Ways, float64(inner.TotalWays(i)))
		}
	case *central.Ideal:
		for i := 0; i < cfg.Cores; i++ {
			run.Ways = append(run.Ways, inner.AvgWays(i))
		}
	}
	return run
}

// fanOut calls fn(i, sc) for every i in [0, n) across s.Workers goroutines.
// sc is the scale run i must simulate at: s itself, or, when runs proceed
// concurrently and share a recorder, s with a FanIn view tagging run i's
// stream tag(i).
func (s Scale) fanOut(n int, tag func(int) string, fn func(i int, sc Scale)) {
	fan := s.fanIn()
	ForEach(s.Workers, n, func(i int) { fn(i, s.forJob(fan, tag(i))) })
}

// fanIn wraps the scale's recorder for a parallel campaign section: nil when
// no recorder is attached or the campaign is sequential (the chips then use
// Scale.Recorder directly).
func (s Scale) fanIn() *telemetry.FanIn {
	if s.Workers <= 1 || s.Recorder == nil {
		return nil
	}
	return telemetry.NewFanIn(s.Recorder)
}

// forJob returns the scale one concurrently running simulation should use:
// with a fan-in active, the shared recorder is replaced by a serialized view
// tagging the job's stream; otherwise the scale is returned unchanged.
func (s Scale) forJob(fan *telemetry.FanIn, tag string) Scale {
	if fan != nil {
		s.Recorder = fan.Tag(tag)
	}
	return s
}
