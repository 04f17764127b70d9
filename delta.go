// Package delta is the public API of the DELTA reproduction: a simulator of
// tile-based chip multiprocessors with distributed, locality-aware last-level
// cache partitioning, after Holtryd et al., "DELTA: Distributed
// Locality-Aware Cache Partitioning for Tile-based Chip Multiprocessors"
// (IPPS 2020).
//
// The package wraps the internal simulator behind a small facade:
//
//	sim, err := delta.New(delta.WithCores(16), delta.WithPolicy(delta.PolicyDelta))
//	...
//	sim.SetWorkload(0, delta.Workload{App: "omnetpp"})
//	...
//	res := sim.Run()
//	fmt.Println(res.GeoMeanIPC())
//	sim.Close() // optional: recycles the chip's arrays for the next simulator
//
// Policies resolve by name through a registry (see Policies and
// RegisterPolicy). Seven are built in: the unpartitioned shared S-NUCA
// baseline, static private partitioning, DELTA's distributed challenge-based
// scheme, the zero-overhead ideal centralized scheme (UCP Lookahead plus
// locality-aware placement), LFOC-style fairness clustering, CARMA-style
// auction-based allocation, and per-bank bandwidth regulation layered on any
// base policy. Per-policy parameters attach uniformly with WithPolicyParams.
// Workloads come from the built-in SPEC CPU2006 models, the Table IV mixes,
// the SPLASH2 sharing profiles, or custom access generators.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the paper
// reproduction results; the examples/ directory contains runnable programs.
package delta

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"delta/internal/bankbw"
	"delta/internal/chip"
	"delta/internal/core"
	"delta/internal/metrics"
	"delta/internal/policies"
	"delta/internal/scenario"
	"delta/internal/snapshot"
	"delta/internal/trace"
	"delta/internal/workloads"
)

// PolicyKind selects the cache-partitioning scheme.
type PolicyKind string

// Built-in policies; Policies() lists everything currently registered.
const (
	PolicySnuca   PolicyKind = "snuca"
	PolicyPrivate PolicyKind = "private"
	PolicyDelta   PolicyKind = "delta"
	PolicyIdeal   PolicyKind = "ideal"
	PolicyLFOC    PolicyKind = "lfoc"
	PolicyCARMA   PolicyKind = "carma"
	PolicyBankBW  PolicyKind = "bankbw"
)

// Config describes a simulation.
type Config struct {
	// Cores is the tile count; must be a perfect square (16 and 64 in the
	// paper).
	Cores int
	// Policy selects the partitioning scheme (default PolicyDelta).
	Policy PolicyKind
	// TimeCompression divides the paper's reconfiguration intervals and is
	// matched by correspondingly smaller instruction budgets (DESIGN.md §3).
	// 0 uses the experiment default (50).
	TimeCompression uint64
	// WarmupInstructions and BudgetInstructions set the per-core
	// fast-forward and measured windows; 0 uses the experiment defaults.
	WarmupInstructions, BudgetInstructions uint64
	// FastForward replaces the simulated warmup with analytical seeding:
	// before Run, every core whose generator exposes a trace locality model
	// gets its UMON counters and cache contents derived from closed-form
	// stack-distance curves, and measurement starts immediately. Cores
	// without a model (custom generators, shared address spaces) warm the
	// simulated way. Results differ from a simulated warmup only within the
	// bound documented in DESIGN.md §10.
	FastForward bool
	// Multithreaded enables R-NUCA-style shared-page handling.
	Multithreaded bool
	// Seed drives workload randomness.
	Seed uint64
	// Recorder receives telemetry (events, per-quantum samples, end-of-run
	// counters and gauges). nil disables telemetry entirely; the policies
	// attach to it automatically.
	Recorder Recorder
	// SampleEvery sets how many quanta elapse between telemetry samples
	// (0 uses the chip default of 16). Only meaningful with a Recorder.
	SampleEvery int
	// Check enables the runtime invariant harness: simulator-wide
	// consistency checks at every quantum boundary and after every
	// reconfiguration, panicking on the first violation. See DESIGN.md
	// "Validation & invariants".
	Check bool
	// SnapshotEvery, when positive, auto-checkpoints the simulator every
	// SnapshotEvery quantum boundaries during Run/RunCtx; the latest
	// checkpoint is available through LastSnapshot. Like the other
	// observability knobs it never changes results and is excluded from
	// CanonicalJSON.
	SnapshotEvery int

	// Scenario scripts dynamic events — workload arrivals, departures, core
	// migrations, load spikes and phase storms — applied deterministically
	// at quantum boundaries during Run. A scenario changes results, so it is
	// part of CanonicalJSON (and therefore the service's content address);
	// nil (the default) runs the static experiment and leaves existing
	// configuration hashes unchanged. See the Scenario type and DESIGN.md
	// §12 for the DSL.
	Scenario *Scenario
	// PolicyParams carries per-policy parameter overrides, keyed by policy
	// name, as JSON decoded onto the policy's scale-resolved defaults.
	// Set entries with WithPolicyParams, which marshals deterministically
	// (the raw bytes are part of CanonicalJSON, so semantically equal but
	// differently formatted JSON yields different content addresses). The
	// only entry allowed is Policy's own: params for another policy would
	// change the content address without changing the run.
	PolicyParams map[string]json.RawMessage
}

// Workload assigns an application to a core. Exactly one of App or Generator
// must be set.
type Workload struct {
	// App names a built-in SPEC CPU2006 model (full name or short code).
	App string
	// Generator supplies a custom access stream.
	Generator trace.Generator
	// SharedAddressSpace marks multithreaded workloads whose generators
	// emit into one global address space.
	SharedAddressSpace bool
}

// Validate reports whether the workload is well-formed: exactly one of App
// or Generator set, and App (when set) naming a built-in model.
func (w Workload) Validate() error {
	switch {
	case w.App == "" && w.Generator == nil:
		return errors.New("delta: workload needs App or Generator")
	case w.App != "" && w.Generator != nil:
		return errors.New("delta: workload has both App and Generator; set exactly one")
	case w.App != "":
		if _, err := LookupApp(w.App); err != nil {
			return err
		}
	}
	return nil
}

// Simulator is a configured chip ready to run.
type Simulator struct {
	cfg    Config
	chip   *chip.Chip
	loaded int
	ran    bool

	// Workload bookkeeping for checkpoint/restore: the mix name (applied
	// first on restore) and per-core named assignments layered on top.
	// Cores loaded with custom generators record hasCustom and make
	// Snapshot fail.
	mixName   string
	appByCore map[int]snapshot.AppAssignment
	hasCustom bool

	// Auto-checkpoints (snapshot.go): lastSnap is the latest, and
	// lastEscaped records that LastSnapshot handed it out; until it has, the
	// next capture rewrites lastSnap in place.
	mu          sync.Mutex
	lastSnap    *Snapshot
	lastEscaped bool

	closed atomic.Bool
}

// Close releases the simulator's cache and UMON arrays to a process-wide
// free list, from which simulators built later draw theirs instead of
// allocating: a process that runs many simulations in sequence (a service
// worker, a campaign) then allocates roughly one chip per concurrent run
// rather than one per run. Closing is optional — a simulator that is never
// closed is garbage-collected as before — and changes no result.
//
// Call Close once the results are read: Results, Snapshots and
// checkpoints already returned stay valid, but any later method call on the
// simulator panics. Close is idempotent and must not race a running RunCtx.
func (s *Simulator) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.chip.Release()
}

// live panics on a closed simulator.
func (s *Simulator) live() {
	if s.closed.Load() {
		panic("delta: Simulator used after Close")
	}
}

// Canonical returns the configuration with every default resolved, exactly
// as New would run it. Two configurations with equal Canonical forms
// produce bit-identical simulations.
func (c Config) Canonical() Config {
	if c.Cores == 0 {
		c.Cores = 16
	}
	if c.Policy == "" {
		c.Policy = PolicyDelta
	}
	if c.TimeCompression == 0 {
		c.TimeCompression = 50
	}
	if c.WarmupInstructions == 0 {
		c.WarmupInstructions = 400_000
	}
	if c.BudgetInstructions == 0 {
		c.BudgetInstructions = 250_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// CanonicalJSON serializes the result-affecting configuration fields (with
// defaults resolved) into deterministic bytes, suitable as a
// content-addressed cache key: two configurations with equal CanonicalJSON
// produce bit-identical runs. Observability knobs (Recorder, SampleEvery,
// Check) are excluded because they never change results.
func (c Config) CanonicalJSON() ([]byte, error) {
	cc := c.Canonical()
	return json.Marshal(struct {
		Cores           int
		Policy          PolicyKind
		TimeCompression uint64
		Warmup          uint64
		Budget          uint64
		// FastForward changes results, so it must be part of the cache key;
		// omitempty keeps keys of pre-existing (simulated-warmup)
		// configurations byte-identical to earlier releases.
		FastForward   bool `json:",omitempty"`
		Multithreaded bool
		Seed          uint64
		// Scenario changes results; omitempty keeps static configurations'
		// keys byte-identical to earlier releases.
		Scenario *Scenario `json:",omitempty"`
		// PolicyParams changes results; json.Marshal sorts the map keys, so
		// equal maps serialize identically, and omitempty keeps param-free
		// configurations' keys byte-identical to earlier releases.
		PolicyParams map[string]json.RawMessage `json:",omitempty"`
	}{
		Cores:           cc.Cores,
		Policy:          cc.Policy,
		TimeCompression: cc.TimeCompression,
		Warmup:          cc.WarmupInstructions,
		Budget:          cc.BudgetInstructions,
		FastForward:     cc.FastForward,
		Multithreaded:   cc.Multithreaded,
		Seed:            cc.Seed,
		Scenario:        cc.Scenario,
		PolicyParams:    cc.PolicyParams,
	})
}

// Validate rejects configurations the internal layers would panic on: an
// unregistered policy, policy params for any policy but the run's, and a
// core count that is not a square power of two. New and Restore apply it.
func (c Config) Validate() error {
	if !policies.Registered(string(c.Policy)) {
		return fmt.Errorf("delta: unknown policy %q (registered: %s)",
			c.Policy, strings.Join(Policies(), " "))
	}
	for _, name := range sortedParamKeys(c.PolicyParams) {
		if name != string(c.Policy) {
			return fmt.Errorf("delta: policy params for %q, but the run's policy is %q", name, c.Policy)
		}
		if !json.Valid(c.PolicyParams[name]) {
			return fmt.Errorf("delta: policy params for %q are not valid JSON", name)
		}
	}
	n := c.Cores
	if n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("delta: core count %d is not a power of two", n)
	}
	side := 1
	for side*side < n {
		side++
	}
	if side*side != n {
		return fmt.Errorf("delta: core count %d is not a square mesh", n)
	}
	return nil
}

// newSimulator is the single construction path behind New and Restore.
func newSimulator(cfg Config) (*Simulator, error) {
	cfg = cfg.Canonical()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ccfg := chip.DefaultConfig(cfg.Cores)
	ccfg.Multithreaded = cfg.Multithreaded
	ccfg.Seed = cfg.Seed
	ccfg.UmonSampleEvery = 4
	ccfg.Recorder = cfg.Recorder
	ccfg.SampleEvery = cfg.SampleEvery
	ccfg.Check = cfg.Check
	s := &Simulator{cfg: cfg, appByCore: make(map[int]snapshot.AppAssignment)}
	pol, err := policies.Build(string(cfg.Policy), policies.BuildContext{
		IntervalScale: cfg.TimeCompression, Params: cfg.PolicyParams[string(cfg.Policy)],
		LLCWays: ccfg.LLCWays})
	if err != nil {
		return nil, err
	}
	s.chip = chip.New(ccfg, pol)
	return s, nil
}

// sortedParamKeys returns the map's keys in deterministic order.
func sortedParamKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SetWorkload assigns a workload to a core, panicking on invalid input.
func (s *Simulator) SetWorkload(coreID int, w Workload) {
	if err := s.SetWorkloadE(coreID, w); err != nil {
		panic(err.Error())
	}
}

// SetWorkloadE assigns a workload to a core, returning an error (instead of
// panicking) on an out-of-range core, an unknown application, or a call
// after Run.
func (s *Simulator) SetWorkloadE(coreID int, w Workload) error {
	s.live()
	if s.ran {
		return errors.New("delta: SetWorkload after Run")
	}
	if coreID < 0 || coreID >= s.cfg.Cores {
		return fmt.Errorf("delta: core %d out of range [0,%d)", coreID, s.cfg.Cores)
	}
	if err := w.Validate(); err != nil {
		return err
	}
	gen := w.Generator
	if gen == nil {
		app, err := LookupApp(w.App)
		if err != nil {
			return err
		}
		gen = app.Spec.Build(workloads.CoreSeed(s.cfg.Seed, coreID))
		// Record by canonical name so a restore rebuilds the identical
		// generator tree regardless of whether the short code was used.
		s.appByCore[coreID] = snapshot.AppAssignment{Core: coreID, App: app.Name, Shared: w.SharedAddressSpace}
	} else {
		delete(s.appByCore, coreID)
		s.hasCustom = true
	}
	s.chip.SetWorkload(coreID, gen, !w.SharedAddressSpace)
	s.loaded++
	return nil
}

// LoadMix assigns one of the paper's Table IV mixes (w1..w15) to all cores,
// panicking on an unknown mix.
func (s *Simulator) LoadMix(name string) {
	if err := s.LoadMixE(name); err != nil {
		panic(err.Error())
	}
}

// LoadMixE assigns one of the paper's Table IV mixes to all cores, returning
// an error (instead of panicking) on an unknown mix, a chip whose core count
// is not a multiple of 16, or a call after Run.
func (s *Simulator) LoadMixE(name string) error {
	s.live()
	if s.ran {
		return errors.New("delta: LoadMix after Run")
	}
	var mix *workloads.Mix
	for _, m := range workloads.Mixes() {
		if m.Name == name {
			mix = &m
			break
		}
	}
	if mix == nil {
		return fmt.Errorf("delta: unknown mix %q", name)
	}
	if s.cfg.Cores%16 != 0 {
		return fmt.Errorf("delta: %d cores is not a multiple of 16; mixes need 16n cores", s.cfg.Cores)
	}
	for i, g := range mix.Generators(s.cfg.Cores, s.cfg.Seed) {
		s.chip.SetWorkload(i, g, true)
		s.loaded++
	}
	// The mix assigns every core, superseding earlier per-core assignments;
	// restores replay the mix first, then later SetWorkload calls on top.
	s.mixName = name
	s.appByCore = make(map[int]snapshot.AppAssignment)
	s.hasCustom = false
	return nil
}

// SetProcessGroup marks cores as threads of one process (multithreaded mode;
// DELTA then refuses challenges between them).
func (s *Simulator) SetProcessGroup(cores []int, pid int) {
	if d, ok := bankbw.Unwrap(s.Policy()).(*core.Delta); ok {
		for _, c := range cores {
			d.SetProcess(c, pid)
		}
	}
}

// CoreResult re-exports the chip's per-core measurement.
type CoreResult = chip.CoreResult

// Result summarizes a run.
type Result struct {
	Policy PolicyKind
	Cores  []CoreResult

	ControlMessageFraction float64
	InvalidatedLines       uint64
}

// Run executes the simulation (warmup then measured window) and returns the
// results. Run can only be called once.
func (s *Simulator) Run() Result {
	res, err := s.RunCtx(context.Background())
	if err != nil {
		// Background contexts never cancel, so the only errors are the
		// call-twice / nothing-loaded programming errors.
		panic(err.Error())
	}
	return res
}

// ErrCanceled marks a run stopped by its context before the measured window
// completed. Errors returned by RunCtx wrap it (and the context's cause), and
// the Result alongside holds partial measurements.
var ErrCanceled = errors.New("delta: run canceled")

// RunCtx executes the simulation like Run, checking ctx at every chip
// quantum boundary: a canceled or expired context stops the run within one
// quantum. On cancellation the returned error wraps both ErrCanceled and the
// context's error, and the returned Result carries whatever the chip had
// measured so far (partial: cores that never crossed their budget report
// their progress at the stop point).
func (s *Simulator) RunCtx(ctx context.Context) (Result, error) {
	s.live()
	if s.ran {
		return Result{}, errors.New("delta: Run called twice")
	}
	if s.loaded == 0 {
		return Result{}, errors.New("delta: no workloads assigned")
	}
	s.ran = true
	if s.cfg.Scenario != nil {
		// A fresh run validates the script against the actual initial
		// occupancy; a restored run resumes mid-scenario (the original run
		// already validated, and occupancy has moved with the events).
		if s.chip.Now() == 0 {
			occ := make([]bool, s.cfg.Cores)
			for i := range occ {
				occ[i] = s.chip.HasWorkload(i)
			}
			if err := s.cfg.Scenario.Validate(s.cfg.Cores, occ); err != nil {
				return Result{}, err
			}
		}
		s.chip.SetBoundaryHook(scenario.NewExecutor(s.cfg.Scenario, s.chip, s.buildApp))
	}
	// A restored simulator resumes mid-run; fast-forward only applies to a
	// chip that has not advanced (restored tiles are already warmed anyway).
	if s.cfg.FastForward && s.chip.Now() == 0 {
		s.chip.FastForward(s.cfg.WarmupInstructions)
	}
	if s.cfg.SnapshotEvery > 0 {
		s.chip.SetCheckpoint(s.cfg.SnapshotEvery, func(uint64) { s.storeCheckpoint() })
	}
	err := s.chip.RunCtx(ctx, s.cfg.WarmupInstructions, s.cfg.BudgetInstructions)
	if err != nil && s.cfg.SnapshotEvery > 0 {
		// The chip stopped at an exact quantum boundary; capture it so the
		// last checkpoint resumes from the stop point, not an earlier one.
		s.storeCheckpoint()
	}
	res := Result{
		Policy:                 s.cfg.Policy,
		Cores:                  s.chip.Results(),
		ControlMessageFraction: s.chip.Net.Stats.ControlFraction(),
		InvalidatedLines:       s.chip.Stats.InvalLines,
	}
	if err != nil {
		return res, fmt.Errorf("%w after %d cycles (results are partial): %w", ErrCanceled, s.chip.Now(), err)
	}
	return res, nil
}

// Policy returns the partitioning policy instance the simulator runs, for
// introspection: type-assert it to the concrete policy type (bankbw.Unwrap
// reaches the policy a bandwidth regulator wraps).
func (s *Simulator) Policy() Policy {
	s.live()
	return s.chip.Policy()
}

// GeoMeanIPC is the paper's per-workload performance metric: the geometric
// mean over cores that measured a positive IPC. Cores that retired no
// instructions in their window (idle tiles, or partial runs stopped before
// warmup) are excluded rather than poisoning the mean with NaN/-Inf; when no
// core measured anything the result is 0.
func (r Result) GeoMeanIPC() float64 {
	ipcs := make([]float64, 0, len(r.Cores))
	for _, c := range r.Cores {
		if c.IPC > 0 {
			ipcs = append(ipcs, c.IPC)
		}
	}
	if len(ipcs) == 0 {
		return 0
	}
	return metrics.GeoMean(ipcs)
}

// IPCs returns the per-core IPC vector.
func (r Result) IPCs() []float64 {
	out := make([]float64, len(r.Cores))
	for i, c := range r.Cores {
		out[i] = c.IPC
	}
	return out
}

// buildApp is the scenario executor's generator factory: an arriving
// application gets the same seed derivation its core would have used for an
// initial assignment, so scripted arrivals are as deterministic as static
// workloads.
func (s *Simulator) buildApp(coreID int, name string) (trace.Generator, error) {
	app, err := LookupApp(name)
	if err != nil {
		return nil, err
	}
	return app.Spec.Build(workloads.CoreSeed(s.cfg.Seed, coreID)), nil
}

// Scenario is the dynamic-scenario DSL: a schema-versioned script of workload
// arrivals, departures, core migrations, load spikes and phase storms applied
// at quantum boundaries. Attach one with WithScenario or Config.Scenario.
type Scenario = scenario.Scenario

// ScenarioEvent is one scripted action in a Scenario.
type ScenarioEvent = scenario.Event

// Scenario event kinds.
const (
	ScenarioArrive  = scenario.KindArrive
	ScenarioDepart  = scenario.KindDepart
	ScenarioMigrate = scenario.KindMigrate
	ScenarioSpike   = scenario.KindSpike
	ScenarioStorm   = scenario.KindStorm
)

// ParseScenario decodes and validates a JSON scenario for a chip with cores
// tiles; initial[i] reports whether tile i starts occupied (nil = all do).
func ParseScenario(data []byte, cores int, initial []bool) (*Scenario, error) {
	return scenario.Parse(data, cores, initial)
}

// ChaosScenario deterministically generates a random scenario that is valid
// for a fully loaded chip with cores tiles and fires every event within
// quanta quantum boundaries; the fuzz harness sweeps seeds against the
// invariant checker.
func ChaosScenario(seed uint64, cores int, quanta uint64, events int) *Scenario {
	return scenario.Chaos(seed, cores, quanta, events)
}

// App re-exports the workload model type.
type App = workloads.App

// LookupApp resolves a SPEC CPU2006 model by name or short code.
func LookupApp(name string) (App, error) {
	for _, a := range workloads.Apps() {
		if a.Name == name || a.Short == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("delta: unknown application %q", name)
}

// Apps lists the built-in SPEC CPU2006 models.
func Apps() []App { return workloads.Apps() }

// MixNames lists the built-in Table IV mixes.
func MixNames() []string {
	out := make([]string, 0, 15)
	for _, m := range workloads.Mixes() {
		out = append(out, m.Name)
	}
	return out
}
