package delta

import "encoding/json"

// Option configures a Simulator built by New. Options apply in order over a
// zero Config, so later options win and New() alone yields the canonical
// 16-core DELTA experiment.
type Option func(*Config)

// New builds a simulator from functional options:
//
//	sim, err := delta.New(delta.WithCores(16), delta.WithPolicy(delta.PolicyDelta))
//
// It returns an error (never panics) on invalid configuration, making it the
// constructor for both programmatic use and untrusted input such as the
// serving layer.
func New(opts ...Option) (*Simulator, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return newSimulator(cfg)
}

// WithConfig replaces the whole configuration; options after it adjust
// individual fields.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithPolicy selects the partitioning scheme.
func WithPolicy(p PolicyKind) Option {
	return func(c *Config) { c.Policy = p }
}

// WithCores sets the tile count (must be a square power of two).
func WithCores(n int) Option {
	return func(c *Config) { c.Cores = n }
}

// WithTimeCompression divides the paper's reconfiguration intervals
// (DESIGN.md §3).
func WithTimeCompression(tc uint64) Option {
	return func(c *Config) { c.TimeCompression = tc }
}

// WithWarmup sets the per-core fast-forward window, in instructions.
func WithWarmup(instructions uint64) Option {
	return func(c *Config) { c.WarmupInstructions = instructions }
}

// WithFastForward replaces simulated warmup with analytical seeding: cores
// whose generators expose a locality model start the measured window
// immediately, with UMON counters and cache contents derived from closed-form
// stack-distance curves (DESIGN.md §10). Cores without a model keep the
// simulated warmup.
func WithFastForward(on bool) Option {
	return func(c *Config) { c.FastForward = on }
}

// WithBudget sets the per-core measured window, in instructions.
func WithBudget(instructions uint64) Option {
	return func(c *Config) { c.BudgetInstructions = instructions }
}

// WithMultithreaded enables R-NUCA-style shared-page handling.
func WithMultithreaded(on bool) Option {
	return func(c *Config) { c.Multithreaded = on }
}

// WithSeed sets the workload randomness seed.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithRecorder attaches a telemetry recorder.
func WithRecorder(r Recorder) Option {
	return func(c *Config) { c.Recorder = r }
}

// WithRecorders attaches several telemetry recorders at once, fanning every
// record out to each (e.g. an in-memory recorder for assertions plus a
// columnar segment sink for durable range queries). Zero recorders leave the
// configuration unchanged; one is attached directly.
func WithRecorders(rs ...Recorder) Option {
	return func(c *Config) {
		switch len(rs) {
		case 0:
		case 1:
			c.Recorder = rs[0]
		default:
			c.Recorder = NewMultiRecorder(rs...)
		}
	}
}

// WithSampleEvery sets the telemetry sampling period, in quanta.
func WithSampleEvery(quanta int) Option {
	return func(c *Config) { c.SampleEvery = quanta }
}

// WithCheck enables the runtime invariant harness.
func WithCheck(on bool) Option {
	return func(c *Config) { c.Check = on }
}

// WithSnapshotEvery auto-checkpoints every n quantum boundaries during
// Run/RunCtx; the latest checkpoint is available through LastSnapshot.
// The simulator holds one checkpoint buffer and rewrites it in place, so
// steady-state checkpointing allocates almost nothing; a checkpoint that
// LastSnapshot returned is never rewritten (the next capture takes a fresh
// buffer), and a capture that fails keeps the previous checkpoint intact.
func WithSnapshotEvery(n int) Option {
	return func(c *Config) { c.SnapshotEvery = n }
}

// WithScenario scripts dynamic events (arrivals, departures, migrations,
// load spikes, phase storms) applied at quantum boundaries during the run.
// The scenario is validated against the chip's initial occupancy when Run
// starts; it changes results and is part of the configuration's canonical
// identity. nil clears a previously set scenario.
func WithScenario(sc *Scenario) Option {
	return func(c *Config) { c.Scenario = sc }
}

// WithPolicyParams overrides the named policy's parameters uniformly for
// every registered policy: params is marshaled to JSON deterministically and
// decoded onto the policy's complete, scale-resolved defaults at
// construction, so a full parameter struct (e.g. core.Params, lfoc.Config)
// replaces everything while a partial map tweaks individual knobs. For the
// built-ins, an unknown key, an explicit 0 on a knob that has a default and
// an out-of-range value are errors from New. The marshaled bytes join
// CanonicalJSON, changing the configuration's content address. A value
// that cannot marshal surfaces as an error from New.
func WithPolicyParams(name PolicyKind, params any) Option {
	return func(c *Config) {
		if c.PolicyParams == nil {
			c.PolicyParams = make(map[string]json.RawMessage)
		}
		raw, err := json.Marshal(params)
		if err != nil {
			// Stash invalid bytes; validate rejects them so New reports the
			// problem instead of silently dropping the override.
			raw = json.RawMessage("!unmarshalable: " + err.Error())
		}
		c.PolicyParams[string(name)] = raw
	}
}
