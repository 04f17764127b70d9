package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"delta"
	"delta/internal/chip"
	"delta/internal/noc"
	"delta/internal/policies"
	"delta/internal/scenario"
	"delta/internal/snapshot"
	"delta/internal/trace"
	"delta/internal/workloads"
)

// span is one timed call into a layer. Spans of one simulation share Sim;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	Op      int     `json:"op"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Sim     int     `json:"sim"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
}

// tracer keeps one traced op's spans and counter totals in memory. A nil
// tracer records nothing, so untraced paths share the traced code.
type tracer struct {
	origin time.Time
	op     int

	mu     sync.Mutex
	spans  []span
	quanta []float64          // per-quantum host time, microseconds
	counts map[string]float64 // public counters summed over simulations
}

func newTracer(origin time.Time, op int) *tracer {
	return &tracer{origin: origin, op: op, counts: map[string]float64{}}
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.origin).Nanoseconds()) / 1e3 }

// record adds a finished span and returns its ID.
func (t *tracer) record(sim, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans) + 1, Parent: parent, Sim: sim,
		Name: name, StartUS: t.us(start), EndUS: t.us(end)})
	return len(t.spans)
}

// begin opens a span; the returned func closes it. The ID lets children
// name their parent.
func (t *tracer) begin(sim, parent int, name string) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.record(sim, parent, name, time.Now(), time.Now())
	return id, func() {
		now := t.us(time.Now())
		t.mu.Lock()
		t.spans[id-1].EndUS = now
		t.mu.Unlock()
	}
}

func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// finish fills in self times: a span's duration minus its children's.
func (t *tracer) finish() []span {
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfUS = s.EndUS - s.StartUS - child[s.ID]
	}
	return t.spans
}

// layerTotals turns the op's spans and counters into per-layer metrics.
func (t *tracer) layerTotals() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := map[string]float64{}
	for _, s := range t.spans {
		sum[s.Name] += (s.EndUS - s.StartUS) / 1e6
	}
	c := t.counts
	m := map[string]float64{
		"policy.build_s":         sum["policy.build"],
		"chip.new_s":             sum["chip.new"],
		"chip.setworkload_s":     sum["chip.setworkload"],
		"chip.fastforward_s":     sum["chip.fastforward"],
		"chip.advance_s":         sum["chip.advance"],
		"chip.advance_share":     ratio(sum["chip.advance"], sum["chip.run"]),
		"chip.quantum_us_p50":    percentile(t.quanta, 50),
		"chip.quantum_us_p99":    percentile(t.quanta, 99),
		"policy.tick_s":          sum["policy.tick"],
		"policy.tick_share":      ratio(sum["policy.tick"], sum["chip.run"]),
		"scenario.apply_s":       sum["scenario.apply"],
		"snapshot.capture_s":     sum["snapshot.capture"],
		"snapshot.encode_s":      sum["snapshot.encode"],
		"snapshot.decode_s":      sum["snapshot.decode"],
		"snapshot.restore_s":     sum["snapshot.restore"],
		"snapshot.bytes":         ratio(c["snapshot.bytes"], c["snapshot.encodes"]),
		"cache.l2_mpki":          1000 * ratio(c["l2.misses"], c["instructions"]),
		"cache.llc_hit_ratio":    ratio(c["llc.hits"], c["llc.accesses"]),
		"cache.llc_evictions":    c["llc.evictions"],
		"cache.invals":           c["llc.invals"],
		"cache.bulk_walks":       c["llc.bulk_walks"],
		"noc.msgs_data":          c["noc.msgs_data"],
		"noc.msgs_coherence":     c["noc.msgs_coherence"],
		"noc.msgs_control":       c["noc.msgs_control"],
		"noc.hops":               c["noc.hops"],
		"mem.requests":           c["mem.requests"],
		"mem.queue_delay_cycles": c["mem.queue_delay_cycles"],
		"chip.inval_lines":       c["chip.inval_lines"],
		"chip.mask_fallbacks":    c["chip.mask_fallbacks"],
		"chip.quanta":            c["chip.quanta"],
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countChip adds the chip's public end-of-run counters to the op's totals.
func (t *tracer) countChip(c *chip.Chip) {
	for _, tile := range c.Tiles {
		t.count("instructions", float64(tile.Core.Instructions()))
		t.count("l2.misses", float64(tile.L2.Stats.Misses))
		st := tile.LLC.Stats
		t.count("llc.accesses", float64(st.Accesses))
		t.count("llc.hits", float64(st.Hits))
		t.count("llc.evictions", float64(st.Evictions))
		t.count("llc.invals", float64(st.Invals))
		t.count("llc.bulk_walks", float64(st.BulkWalks))
	}
	ns := c.Net.Stats
	t.count("noc.msgs_data", float64(ns.Messages[noc.ClassData]))
	t.count("noc.msgs_coherence", float64(ns.Messages[noc.ClassCoherence]))
	t.count("noc.msgs_control", float64(ns.Messages[noc.ClassControl]))
	t.count("noc.hops", float64(ns.TotalHops()))
	ms := c.Mem.TotalStats()
	t.count("mem.requests", float64(ms.Requests))
	t.count("mem.queue_delay_cycles", float64(ms.QueueDelay))
	t.count("chip.inval_lines", float64(c.Stats.InvalLines))
	t.count("chip.mask_fallbacks", float64(c.Stats.MaskFallbacks))
	t.count("chip.quanta", float64(c.Now()/c.Cfg.Quantum))
}

// runTraced runs the same simulation as runSim, but builds the chip from the
// layer packages exactly as the facade's newSimulator, LoadMix and RunCtx do,
// so spans can wrap each call. Its fingerprint must equal the facade run's;
// the measure loop checks that, which also catches this copy drifting from
// the facade.
func runTraced(ctx context.Context, tr *tracer, sim int, sp simSpec, start time.Time) (simOutcome, error) {
	root, endRoot := tr.begin(sim, 0, "sim."+sp.Policy)
	defer endRoot()
	cfg := sp.config()

	_, end := tr.begin(sim, root, "policy.build")
	pol, err := policies.Build(string(cfg.Policy), policies.BuildContext{IntervalScale: cfg.TimeCompression})
	end()
	if err != nil {
		return simOutcome{}, err
	}
	ccfg := chip.DefaultConfig(cfg.Cores)
	ccfg.Multithreaded = cfg.Multithreaded
	ccfg.Seed = cfg.Seed
	ccfg.UmonSampleEvery = 4
	_, end = tr.begin(sim, root, "chip.new")
	c := chip.New(ccfg, pol)
	end()
	_, end = tr.begin(sim, root, "chip.setworkload")
	for i, g := range workloads.MixByName(sp.Mix).Generators(cfg.Cores, cfg.Seed) {
		c.SetWorkload(i, g, true)
	}
	end()

	hook := &quantumHook{tr: tr, sim: sim, c: c, snapEvery: cfg.SnapshotEvery}
	if cfg.Scenario != nil {
		if err := cfg.Scenario.Validate(cfg.Cores, nil); err != nil {
			return simOutcome{}, err
		}
		hook.inner = scenario.NewExecutor(cfg.Scenario, c, func(core int, name string) (trace.Generator, error) {
			app, err := delta.LookupApp(name)
			if err != nil {
				return nil, err
			}
			// The facade's seed derivation for an arriving application.
			return app.Spec.Build(cfg.Seed*1000003 + uint64(core)*7919 + 17), nil
		})
	}
	c.SetBoundaryHook(hook)
	if cfg.FastForward {
		_, end = tr.begin(sim, root, "chip.fastforward")
		c.FastForward(cfg.WarmupInstructions)
		end()
	}
	c.SetCheckpoint(1, hook.afterTick)
	hook.run, end = tr.begin(sim, root, "chip.run")
	hook.last = time.Now()
	err = c.RunCtx(ctx, cfg.WarmupInstructions, cfg.BudgetInstructions)
	end()
	if err != nil {
		return simOutcome{}, err
	}
	out := simOutcome{
		Fingerprint: c.Fingerprint(),
		IPC:         delta.Result{Cores: c.Results()}.GeoMeanIPC(),
	}
	tr.countChip(c)
	if sp.Churn && hook.lastSnap != nil {
		cfgJSON, err := cfg.CanonicalJSON()
		if err != nil {
			return simOutcome{}, err
		}
		env := &snapshot.Envelope{Kind: "delta.simulator", Config: cfgJSON,
			Workloads: &snapshot.Workloads{Mix: sp.Mix}, Chip: hook.lastSnap}
		out.Restore, out.RestoreErr = resumeCheckpoint(ctx, tr, sim, root,
			func() ([]byte, error) { return snapshot.Encode(env) }, out.Fingerprint)
	}
	out.Done = time.Since(start)
	return out, nil
}

// quantumHook splits every quantum of chip.RunCtx with the chip's two public
// hooks: the boundary hook fires after the cores advance and in-flight
// events drain, the checkpoint hook (every quantum) after the policy tick.
// It delegates to the scenario executor when there is one, and takes the
// facade's auto-checkpoint every snapEvery quanta.
type quantumHook struct {
	inner     chip.BoundaryHook
	tr        *tracer
	sim, run  int
	c         *chip.Chip
	snapEvery int
	since     int
	last      time.Time // end of the previous quantum
	boundary  time.Time // end of advance+drain (and scenario events)
	lastSnap  *snapshot.Chip
}

func (h *quantumHook) OnBoundary(now uint64) {
	t := time.Now()
	h.tr.record(h.sim, h.run, "chip.advance", h.last, t)
	h.boundary = t
	if h.inner != nil {
		h.inner.OnBoundary(now)
		h.boundary = time.Now()
		h.tr.record(h.sim, h.run, "scenario.apply", t, h.boundary)
	}
}

func (h *quantumHook) Pending(now uint64) bool {
	return h.inner != nil && h.inner.Pending(now)
}

func (h *quantumHook) afterTick(uint64) {
	t := time.Now()
	h.tr.record(h.sim, h.run, "policy.tick", h.boundary, t)
	h.tr.mu.Lock()
	h.tr.quanta = append(h.tr.quanta, float64(t.Sub(h.last).Nanoseconds())/1e3)
	h.tr.mu.Unlock()
	if h.snapEvery > 0 {
		if h.since++; h.since >= h.snapEvery {
			h.since = 0
			// Like the facade's checkpoint hook, a failed capture keeps the
			// previous checkpoint.
			if snap, err := h.c.Snapshot(); err == nil {
				h.lastSnap = snap
			}
			h.tr.record(h.sim, h.run, "snapshot.capture", t, time.Now())
		}
	}
	h.last = time.Now()
}

// writeSpans writes every traced op's spans as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.finish() {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfTimes sums self time per span name over every traced op, in seconds,
// for the run's detail record.
func selfTimes(tracers []*tracer) map[string]float64 {
	out := map[string]float64{}
	for _, t := range tracers {
		for _, s := range t.finish() {
			name := s.Name
			if len(name) > 4 && name[:4] == "sim." {
				name = "sim"
			}
			out[name] += s.SelfUS / 1e6
		}
	}
	return out
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
