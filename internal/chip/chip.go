// Package chip assembles the full tiled CMP: per-tile cores, private L1/L2
// caches, distributed LLC banks, the mesh interconnect, memory controllers,
// UMON monitors and the partitioning policy. It implements the loosely
// synchronized quantum run loop (cores advance private clocks inside a global
// quantum and exchange state at quantum boundaries, as in Sniper) and the
// shared services policies rely on: control-message delivery over the NoC,
// bulk invalidation of remapped buckets, idle detection, and per-core
// statistics.
package chip

import (
	"context"
	"fmt"
	"math/bits"

	"delta/internal/cache"
	"delta/internal/cbt"
	"delta/internal/coherence"
	"delta/internal/cpu"
	"delta/internal/geom"
	"delta/internal/invariant"
	"delta/internal/mem"
	"delta/internal/noc"
	"delta/internal/sim"
	"delta/internal/telemetry"
	"delta/internal/trace"
	"delta/internal/umon"
)

// Policy is a cache-partitioning scheme: it owns the mapping from (core,
// address) to LLC bank and the per-bank insertion way masks, and it runs its
// allocation algorithm from Tick, which the chip calls once per quantum.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Attach wires the policy to a chip before the run starts.
	Attach(c *Chip)
	// Tick runs periodic work; now is the global quantum boundary.
	Tick(now uint64)
	// BankFor maps a private-page line address from core to an LLC bank.
	BankFor(core int, lineAddr uint64) int
	// WayMask returns the insertion mask for core's partition in bank; 0
	// means the core owns no capacity there (the chip falls back to the
	// full mask and counts the event, which only happens in transients).
	WayMask(core, bank int) uint64
}

// Latencies holds the fixed access latencies from Table II, in cycles.
type Latencies struct {
	L1Hit   uint64 // 1
	L2Tag   uint64 // 2
	L2Data  uint64 // 6
	LLCTag  uint64 // 2
	LLCData uint64 // 9
}

// DefaultLatencies matches Table II.
func DefaultLatencies() Latencies {
	return Latencies{L1Hit: 1, L2Tag: 2, L2Data: 6, LLCTag: 2, LLCData: 9}
}

// Config describes a chip.
type Config struct {
	Cores int

	L1Bytes, L1Ways   int
	L2Bytes, L2Ways   int
	LLCBytes, LLCWays int // per bank

	Lat Latencies
	CPU cpu.Config
	NoC noc.Config
	Mem mem.Config

	// Quantum is the global synchronization interval in cycles.
	Quantum uint64
	// UmonMaxWays caps the allocation size monitors evaluate; 0 derives the
	// paper's defaults (192 ways / 6 MB at 16 cores, 768 / 24 MB at 64).
	UmonMaxWays int
	// UmonGranularity is the coarse-grained counter width (4 in the paper).
	UmonGranularity int
	// UmonSampleEvery is the dynamic set-sampling ratio (32 in the paper).
	// Time-compressed runs use denser sampling (e.g. 4) so the shorter
	// monitoring windows still see enough traffic; the hardware-overhead
	// numbers in the docs always assume the paper's 32.
	UmonSampleEvery int
	// Seed drives all randomized behaviour.
	Seed uint64
	// Multithreaded enables the page classifier: shared pages revert to
	// S-NUCA mapping (Section II-E).
	Multithreaded bool

	// Check enables the runtime invariant harness: the full simulator-wide
	// sweep (internal/invariant composed by Chip.CheckInvariants) runs at
	// every quantum boundary, after every policy-driven bulk invalidation
	// and at end of run, panicking on the first violation. Off by default;
	// the disabled cost is one branch per call site (benchmark-enforced).
	Check bool

	// Recorder receives the chip's telemetry: per-quantum time-series
	// samples (per-core IPC/MPKI, per-bank fill/hit-rate, NoC link
	// utilization, MCU queue depth) plus end-of-run gauges and counters.
	// nil disables the sampler entirely; telemetry.Nop{} exercises the
	// sampling path at (benchmarked) negligible cost.
	Recorder telemetry.Recorder
	// SampleEvery emits one time-series sample every N quanta (0 = 16).
	SampleEvery int
}

// DefaultConfig returns the paper's Table II configuration for the given
// core count (16 or 64; any square count works).
func DefaultConfig(cores int) Config {
	return Config{
		Cores:           cores,
		L1Bytes:         32 * 1024,
		L1Ways:          8,
		L2Bytes:         128 * 1024,
		L2Ways:          8,
		LLCBytes:        512 * 1024,
		LLCWays:         16,
		Lat:             DefaultLatencies(),
		CPU:             cpu.DefaultConfig(),
		NoC:             noc.DefaultConfig(),
		Mem:             mem.DefaultConfig(cores),
		Quantum:         1000,
		UmonGranularity: 4,
		UmonSampleEvery: 32,
		Seed:            1,
	}
}

// Tile groups one tile's components.
type Tile struct {
	Core *cpu.Core
	L1   *cache.Cache
	L2   *cache.Cache
	LLC  *cache.Cache
	Mon  *umon.Monitor

	gen  trace.Generator
	base uint64

	// Per-tile counters.
	LLCAccesses   uint64
	LLCRemoteHits uint64
	LLCLocalHits  uint64
	MemFetches    uint64

	// Measurement window: the region-of-interest starts when the core
	// finishes its warm-up instructions and ends when it retires the
	// measured budget on top of that (Section III-C's fast-forward +
	// detailed-window methodology).
	warmed      bool
	startCycle  uint64
	startInstr  uint64
	startLLCAcc uint64
	startMemF   uint64
	doneCycle   uint64
	doneInstr   uint64
	doneLLCAcc  uint64
	doneMemF    uint64

	// Hit-locality base: cumulative hit counters latched when the current
	// occupant attached, so LocalHitFrac covers only its own accesses on a
	// tile that hosted earlier workloads. Zero on a fresh chip, which keeps
	// static runs (and their snapshot bytes) unchanged.
	localHitsBase  uint64
	remoteHitsBase uint64
	// warmBase is the instruction count when the occupant attached; the
	// warm-up threshold is measured from it so a scenario arrival on a
	// previously-used core warms over its own instructions.
	warmBase uint64
	// ratePct scales the occupant's access rate: inter-access gaps are
	// multiplied by 100/ratePct, so 200 doubles the LLC-bound request rate
	// (a load spike) and 50 halves it. Always 100 outside scenarios.
	ratePct int
	// throttlePct is the policy-imposed bandwidth regulator (SetThrottle),
	// composed multiplicatively with ratePct: the scenario owns ratePct, a
	// regulating policy owns throttlePct, and neither overwrites the other.
	// Always 100 unless a policy throttles.
	throttlePct int

	lastLLCAccesses uint64
	idleStreak      int

	// Telemetry sampling window: the previous sample's cumulative counters.
	sampInstr    uint64
	sampCycle    uint64
	sampLLCAcc   uint64
	sampBankAcc  uint64
	sampBankHits uint64
}

// Stats aggregates chip-level counters.
type Stats struct {
	InvalLines     uint64 // lines dropped by policy-driven bulk invalidation
	InvalWalks     uint64
	MaskFallbacks  uint64 // inserts that found an empty way mask
	SharedInserts  uint64 // multithreaded: lines of shared pages inserted
	PageReclassify uint64
}

// Chip is a complete simulated CMP.
type Chip struct {
	Cfg   Config
	Topo  *geom.Mesh
	Net   *noc.Mesh
	Mem   *mem.System
	Tiles []*Tile

	policy      Policy
	events      *sim.EventQueue
	now         uint64
	llcSetBits  int
	bankBits    int // log2(cores), the S-NUCA interleave field width
	interleaved bool
	classifier  *coherence.Classifier

	// Invariant harness state (checkOn false means disabled).
	checkOn bool
	mono    *invariant.Monotone
	inclMap map[uint64]inclHome // reused across inclusion sweeps

	// Checkpoint hook (ckptFn == nil means disabled): fired at quantum
	// boundaries, every ckptEvery quanta, after policy ticks and sampling.
	ckptFn     func(now uint64)
	ckptEvery  int
	ckptQuanta int

	// Boundary hook (nil means disabled): the scenario executor's entry
	// point, fired at every quantum boundary after the event-queue drain and
	// before the policy tick.
	hook BoundaryHook

	// departed holds the latched results of workloads detached mid-run, in
	// departure order; Results prepends them to the live tiles' results.
	departed []CoreResult

	// released is set by Release, after which the chip must not be used.
	released bool

	// Telemetry sampler state (rec == nil means disabled).
	rec          telemetry.Recorder
	sampleEvery  int
	sampleQuanta int
	sampleCycle  uint64 // cycle of the previous sample
	sampleNoC    noc.Stats
	sampleMem    mem.Stats

	Stats Stats
}

// New assembles a chip with the given policy. The policy's Attach hook runs
// before New returns.
func New(cfg Config, p Policy) *Chip {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("chip: invalid core count %d", cfg.Cores))
	}
	if cfg.Cores&(cfg.Cores-1) != 0 {
		// Line-interleaved S-NUCA needs a power-of-two bank count (1, 4,
		// 16 and 64 are the square meshes that qualify).
		panic(fmt.Sprintf("chip: core count %d is not a power of two", cfg.Cores))
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 1000
	}
	if cfg.UmonGranularity == 0 {
		cfg.UmonGranularity = 4
	}
	if cfg.UmonSampleEvery == 0 {
		cfg.UmonSampleEvery = 32
	}
	if cfg.UmonMaxWays == 0 {
		// Paper: per-app allocations up to 6 MB (16 cores) / 24 MB (64).
		waySize := cfg.LLCBytes / cfg.LLCWays
		capBytes := 6 * 1024 * 1024
		if cfg.Cores > 16 {
			capBytes = 24 * 1024 * 1024
		}
		total := cfg.Cores * cfg.LLCWays
		cfg.UmonMaxWays = capBytes / waySize
		if cfg.UmonMaxWays > total {
			cfg.UmonMaxWays = total
		}
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 16
	}
	topo := geom.SquareMesh(cfg.Cores)
	c := &Chip{
		Cfg:         cfg,
		Topo:        topo,
		Net:         noc.New(topo, cfg.NoC),
		Mem:         mem.New(topo, cfg.Mem),
		events:      sim.NewEventQueue(),
		rec:         cfg.Recorder,
		sampleEvery: cfg.SampleEvery,
		checkOn:     cfg.Check,
	}
	if c.checkOn {
		c.mono = invariant.NewMonotone()
	}
	c.events.Deliver = c.deliver
	llcSets := cfg.LLCBytes / cache.LineBytes / cfg.LLCWays
	c.llcSetBits = log2(llcSets)
	c.bankBits = log2(cfg.Cores)
	if cfg.Multithreaded {
		c.classifier = coherence.NewClassifier()
	}
	for i := 0; i < cfg.Cores; i++ {
		t := &Tile{
			Core: cpu.New(cfg.CPU),
			L1:   cache.New(cache.Config{SizeBytes: cfg.L1Bytes, Ways: cfg.L1Ways}),
			L2:   cache.New(cache.Config{SizeBytes: cfg.L2Bytes, Ways: cfg.L2Ways}),
			LLC: cache.New(cache.Config{
				SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays,
				TrackOwners: true, Partitions: cfg.Cores,
			}),
			Mon: umon.New(umon.Config{
				MaxWays:     cfg.UmonMaxWays,
				Granularity: cfg.UmonGranularity,
				SetBits:     c.llcSetBits,
				SampleEvery: cfg.UmonSampleEvery,
			}),
			base:        uint64(i) << 40,
			ratePct:     100,
			throttlePct: 100,
		}
		// Inclusive hierarchy: an LLC eviction back-invalidates every
		// private copy; an L2 eviction back-invalidates the L1.
		ti := t
		bankIdx := i
		t.LLC.OnEvict = func(ln cache.Line) { c.backInvalidate(bankIdx, ln) }
		t.L2.OnEvict = func(ln cache.Line) { ti.L1.InvalidateLine(ln.Addr) }
		c.Tiles = append(c.Tiles, t)
	}
	c.policy = p
	p.Attach(c)
	if ip, ok := p.(interleavedPolicy); ok {
		c.interleaved = ip.LineInterleaved()
	}
	return c
}

// Release hands every tile's cache and monitor arrays to the slab free list
// (internal/slab), so chips built later reuse them instead of allocating.
// Call it once the run's results have been read. It is idempotent, and a
// released chip panics on RunCtx, SetWorkload, FastForward, Snapshot,
// Restore and Fingerprint. A chip that is never released is collected as
// usual.
func (c *Chip) Release() {
	if c.released {
		return
	}
	c.released = true
	for _, t := range c.Tiles {
		t.L1.Release()
		t.L2.Release()
		t.LLC.Release()
		t.Mon.Release()
	}
}

// mustLive panics on a released chip.
func (c *Chip) mustLive() {
	if c.released {
		panic("chip: use after Release")
	}
}

// interleavedPolicy marks policies whose BankFor consumes the low line bits
// (the S-NUCA baseline): the chip must then index bank sets above the bank
// field, the classic line-interleaved NUCA layout.
type interleavedPolicy interface {
	LineInterleaved() bool
}

func log2(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	if 1<<n != v {
		panic(fmt.Sprintf("chip: %d is not a power of two", v))
	}
	return n
}

// --- accessors used by policies -------------------------------------------

// Cores returns the core/bank/tile count.
func (c *Chip) Cores() int { return c.Cfg.Cores }

// Ways returns the per-bank associativity.
func (c *Chip) Ways() int { return c.Cfg.LLCWays }

// LLCSetBits returns log2 of a bank's set count (the CBT bucket offset).
func (c *Chip) LLCSetBits() int { return c.llcSetBits }

// Now returns the global quantum clock.
func (c *Chip) Now() uint64 { return c.now }

// Policy returns the attached policy.
func (c *Chip) Policy() Policy { return c.policy }

// Monitor returns core's UMON.
func (c *Chip) Monitor(core int) *umon.Monitor { return c.Tiles[core].Mon }

// CoreInterval snapshots a core's interval counters (see cpu.TakeInterval).
func (c *Chip) CoreInterval(core int) cpu.Interval {
	return c.Tiles[core].Core.TakeInterval()
}

// ControlHandler is implemented by policies that receive reified control
// messages. Delivery happens at the message's arrival cycle during the
// event-queue drain at each quantum boundary.
type ControlHandler interface {
	HandleControl(m sim.Msg, now uint64)
}

// SendControl delivers the message at the destination tile after the NoC
// latency for a control message from src to dst, counting the message.
// Messages are serializable payloads (sim.Msg) rather than closures so
// in-flight traffic survives checkpoint/restore; sim.MsgNoop messages count
// as traffic but are dropped on delivery.
func (c *Chip) SendControl(src, dst int, m sim.Msg) {
	lat := c.Net.Latency(src, dst, noc.ClassControl)
	c.events.ScheduleMsg(c.now+lat, m)
}

// deliver routes a control message to the policy's handler.
func (c *Chip) deliver(m sim.Msg, now uint64) {
	if m.Kind == sim.MsgNoop {
		return
	}
	h, ok := c.policy.(ControlHandler)
	if !ok {
		panic(fmt.Sprintf("chip: policy %s cannot handle control message %q", c.policy.Name(), m.Kind))
	}
	h.HandleControl(m, now)
}

// invalidateOwnerBuckets removes, from the given bank, every line owned by
// owner whose CBT bucket is in buckets, back-invalidating private copies.
// It returns the number of LLC lines invalidated. This is the hardware bulk
// invalidation unit of Section II-C3; Enforcement.Remap drives it.
func (c *Chip) invalidateOwnerBuckets(owner, bank int, buckets *cbt.BucketSet) int {
	setBits := c.llcSetBits
	n := c.Tiles[bank].LLC.InvalidateMatching(func(ln cache.Line) bool {
		return int(ln.Owner) == owner && buckets[cbt.ExtractBucket(ln.Addr, setBits)]
	})
	c.Stats.InvalLines += uint64(n)
	c.Stats.InvalWalks++
	if c.checkOn {
		c.CheckInvariants("remap")
	}
	return n
}

// InvalidatePageEverywhere removes a page's lines from every LLC bank; used
// when a page is reclassified shared (Section II-E).
func (c *Chip) InvalidatePageEverywhere(page uint64) int {
	total := 0
	for _, t := range c.Tiles {
		total += t.LLC.InvalidateMatching(func(ln cache.Line) bool {
			return coherence.PageOf(ln.Addr) == page
		})
	}
	c.Stats.InvalLines += uint64(total)
	if c.checkOn {
		c.CheckInvariants("reclassify")
	}
	return total
}

// IdleCore reports whether the core issued no LLC traffic in the last
// IdleWindow quanta; DELTA uses it to hand over whole banks immediately.
func (c *Chip) IdleCore(core int) bool {
	t := c.Tiles[core]
	return t.gen == nil || t.idleStreak >= 4
}

// SnucaBank returns the static line-interleaved bank mapping used by the
// S-NUCA baseline and by shared pages in multithreaded mode (Table II's
// "line-interleaved LLC addresses"). Lines routed this way are indexed
// inside the bank with the bits *above* the bank field (SnucaSetIdx), so the
// footprint spreads deterministically evenly across every bank and set.
func (c *Chip) SnucaBank(lineAddr uint64) int {
	return int(lineAddr & uint64(c.Cfg.Cores-1))
}

// SnucaSetIdx computes the in-bank set index for a line-interleaved access.
func (c *Chip) SnucaSetIdx(t *Tile, lineAddr uint64) int {
	return t.LLC.SetIndexShifted(lineAddr, c.bankBits)
}

// --- workload wiring --------------------------------------------------------

// SetWorkload assigns core its access generator. When private is true the
// generator's addresses are offset into a per-thread address space (the
// multi-programmed setup); multithreaded workloads pass private=false and
// share one address space.
//
// The address window is keyed by (core, attach quantum), not by core alone:
// a migrated thread carries its base with it, so if a new workload later
// arrives on the vacated tile, a core-only key would hand it the exact
// address space the departed thread still owns on another tile — two live
// threads aliasing each other's lines across two home banks. At setup time
// (clock zero) the formula reduces to the per-core layout, so static runs
// are unaffected.
func (c *Chip) SetWorkload(core int, gen trace.Generator, private bool) {
	c.mustLive()
	t := c.Tiles[core]
	t.gen = gen
	if private {
		// Per-thread address spaces with a pseudo-random sub-offset: physical
		// mappings are never power-of-two aligned across processes, and a
		// perfectly aligned layout would pile every application onto the
		// same sets under line-interleaved indexing.
		var q uint64
		if c.Cfg.Quantum > 0 {
			q = (c.now / c.Cfg.Quantum) & (1<<13 - 1)
		}
		r := sim.NewStream(c.Cfg.Seed, uint64(core)+0x51+q<<20)
		t.base = (uint64(core+1)+q<<10)<<40 + r.Uint64n(1<<18)*64
	} else {
		t.base = 0
	}
}

// SetCheckpoint registers fn to run once every `every` quantum boundaries
// (after the policy tick, invariant checks, and telemetry sampling for that
// quantum). The chip is in a consistent boundary state when fn runs, so fn
// may call Snapshot. every <= 0 or fn == nil disables the hook.
func (c *Chip) SetCheckpoint(every int, fn func(now uint64)) {
	if every <= 0 || fn == nil {
		c.ckptFn = nil
		c.ckptEvery = 0
		c.ckptQuanta = 0
		return
	}
	c.ckptFn = fn
	c.ckptEvery = every
	c.ckptQuanta = 0
}

// --- dynamic membership ------------------------------------------------------

// BoundaryHook observes quantum boundaries; the scenario executor implements
// it to apply scripted arrivals, departures, migrations and load changes.
// OnBoundary runs at every boundary after the event-queue drain and before
// the policy tick, so membership changes are visible to the same tick the
// policy would have run anyway. Pending reports whether the hook still has
// work that must keep the chip running (a scripted arrival not yet applied);
// the run loop will not stop while it returns true.
type BoundaryHook interface {
	OnBoundary(now uint64)
	Pending(now uint64) bool
}

// SetBoundaryHook installs (or, with nil, removes) the boundary hook.
func (c *Chip) SetBoundaryHook(h BoundaryHook) { c.hook = h }

// MembershipHandler is implemented by policies with per-partition state that
// must react to workloads arriving, departing or migrating mid-run. The chip
// invokes the handler after its own bookkeeping (caches relabeled or
// invalidated, UMON reset), so the policy sees the post-event cache state.
// Stateless policies need not implement it.
type MembershipHandler interface {
	WorkloadArrived(core int, now uint64)
	WorkloadDeparted(core int, now uint64)
	WorkloadMigrated(from, to int, now uint64)
}

// HasWorkload reports whether core currently runs a workload.
func (c *Chip) HasWorkload(core int) bool { return c.Tiles[core].gen != nil }

// AttachWorkload starts gen on an empty tile mid-run (a scenario arrival).
// The core's clock is advanced to the current quantum boundary, every
// measurement latch is re-based so the new occupant warms and measures over
// its own instructions, and the tile's UMON restarts from empty. The policy's
// MembershipHandler (if any) runs last so it can admit the newcomer.
func (c *Chip) AttachWorkload(core int, gen trace.Generator) {
	t := c.Tiles[core]
	if gen == nil {
		panic("chip: AttachWorkload with nil generator")
	}
	if t.gen != nil {
		panic(fmt.Sprintf("chip: AttachWorkload on occupied core %d", core))
	}
	c.SetWorkload(core, gen, true)
	t.Core.SetCycle(c.now)
	t.Core.Drain()
	t.Core.TakeInterval() // policy intervals must not span the vacancy
	t.warmed = false
	t.warmBase = t.Core.Instructions()
	t.startCycle = t.Core.Cycle()
	t.startInstr = t.Core.Instructions()
	t.startLLCAcc = t.LLCAccesses
	t.startMemF = t.MemFetches
	t.doneCycle, t.doneInstr, t.doneLLCAcc, t.doneMemF = 0, 0, 0, 0
	t.localHitsBase = t.LLCLocalHits
	t.remoteHitsBase = t.LLCRemoteHits
	t.idleStreak = 0
	t.lastLLCAccesses = t.LLCAccesses
	t.ratePct = 100
	t.throttlePct = 100
	t.Mon.Reset()
	if h, ok := c.policy.(MembershipHandler); ok {
		h.WorkloadArrived(core, c.now)
	}
	if c.checkOn {
		c.CheckInvariants("arrive")
	}
}

// DetachWorkload removes core's workload mid-run (a scenario departure): the
// core drains, its measurement window is latched into the departed-results
// list, every LLC line it owns is invalidated in every bank (back-invalidating
// private copies), its own private caches flush, and its UMON resets. The
// policy's MembershipHandler (if any) then reclaims the partition. The
// latched result is returned.
func (c *Chip) DetachWorkload(core int) CoreResult {
	t := c.Tiles[core]
	if t.gen == nil {
		panic(fmt.Sprintf("chip: DetachWorkload on empty core %d", core))
	}
	t.Core.Drain()
	res := c.coreResult(core)
	c.departed = append(c.departed, res)
	for _, bt := range c.Tiles {
		n := bt.LLC.InvalidateMatching(func(ln cache.Line) bool {
			return int(ln.Owner) == core
		})
		c.Stats.InvalLines += uint64(n)
		c.Stats.InvalWalks++
	}
	t.L2.InvalidateAll() // OnEvict sweeps matching L1 lines first
	t.L1.InvalidateAll()
	t.gen = nil
	t.base = uint64(core) << 40
	t.ratePct = 100
	t.throttlePct = 100
	t.Mon.Reset()
	if h, ok := c.policy.(MembershipHandler); ok {
		h.WorkloadDeparted(core, c.now)
	}
	if c.checkOn {
		c.CheckInvariants("depart")
	}
	return res
}

// MigrateWorkload moves the workload on from to the empty tile to (a scenario
// migration): the thread's architectural state follows it, so the two tiles'
// Core objects swap (cumulative instruction/cycle/MLP counters travel with
// the thread) and the measurement latches move, with tile-owned counters
// (LLC accesses, memory fetches, hit-locality bases) translated into the
// destination tile's counter space. The partition follows the thread: every
// bank relabels the lines it owns from from to to, the source tile's private
// caches flush (a migrated thread restarts cold on the new tile), and both
// tiles' UMONs reset. The policy's MembershipHandler (if any) then moves its
// per-partition state.
func (c *Chip) MigrateWorkload(from, to int) {
	if from == to {
		panic(fmt.Sprintf("chip: MigrateWorkload from core %d to itself", from))
	}
	src, dst := c.Tiles[from], c.Tiles[to]
	if src.gen == nil {
		panic(fmt.Sprintf("chip: MigrateWorkload from empty core %d", from))
	}
	if dst.gen != nil {
		panic(fmt.Sprintf("chip: MigrateWorkload onto occupied core %d", to))
	}
	src.Core.Drain()
	src.Core, dst.Core = dst.Core, src.Core
	dst.Core.SetCycle(c.now)
	dst.gen, src.gen = src.gen, nil
	dst.base, src.base = src.base, uint64(from)<<40

	// Tile-owned cumulative counters stay with their tile; the latches that
	// reference them shift by the difference between the two tiles' counters
	// (uint64 modular arithmetic keeps the later window subtractions exact).
	llcOff := dst.LLCAccesses - src.LLCAccesses
	memOff := dst.MemFetches - src.MemFetches
	dst.warmed = src.warmed
	dst.warmBase = src.warmBase
	dst.startCycle = src.startCycle
	dst.startInstr = src.startInstr
	dst.startLLCAcc = src.startLLCAcc + llcOff
	dst.startMemF = src.startMemF + memOff
	dst.doneCycle = src.doneCycle
	dst.doneInstr = src.doneInstr
	dst.doneLLCAcc, dst.doneMemF = 0, 0
	if src.doneCycle != 0 {
		dst.doneLLCAcc = src.doneLLCAcc + llcOff
		dst.doneMemF = src.doneMemF + memOff
	}
	dst.localHitsBase = src.localHitsBase + (dst.LLCLocalHits - src.LLCLocalHits)
	dst.remoteHitsBase = src.remoteHitsBase + (dst.LLCRemoteHits - src.LLCRemoteHits)
	dst.ratePct, src.ratePct = src.ratePct, 100
	dst.throttlePct, src.throttlePct = src.throttlePct, 100
	dst.idleStreak = 0
	dst.lastLLCAccesses = dst.LLCAccesses
	// Telemetry windows restart at the swapped-in counters so the next
	// sample's derivative never spans the swap.
	dst.sampInstr = dst.Core.Instructions()
	dst.sampCycle = dst.Core.Cycle()
	dst.sampLLCAcc = dst.LLCAccesses
	src.sampInstr = src.Core.Instructions()
	src.sampCycle = src.Core.Cycle()
	src.sampLLCAcc = src.LLCAccesses
	src.warmed = false
	src.warmBase, src.startCycle, src.startInstr = 0, 0, 0
	src.startLLCAcc, src.startMemF = 0, 0
	src.doneCycle, src.doneInstr, src.doneLLCAcc, src.doneMemF = 0, 0, 0, 0
	src.localHitsBase, src.remoteHitsBase = 0, 0

	// The partition follows the thread: relabel its lines in every bank.
	for _, bt := range c.Tiles {
		bt.LLC.ReassignOwner(from, to)
	}
	src.L2.InvalidateAll()
	src.L1.InvalidateAll()
	src.Mon.Reset()
	dst.Mon.Reset()
	if h, ok := c.policy.(MembershipHandler); ok {
		h.WorkloadMigrated(from, to, c.now)
	}
	// With the policy's partition state moved, sweep out any relabeled line
	// the policy no longer maps to the bank it sits in: a refetch would
	// insert the same address into another bank, breaking the one-home
	// invariant. Under DELTA and the ideal scheme the thread's CBT travels
	// with it, so surviving buckets keep mapping and nothing matches; under
	// the private policy the home bank moves with the thread, so its old
	// bank's lines all go (a cold migration, as real private LLCs behave).
	// Classifier-shared lines route by address hash and never move.
	for b, bt := range c.Tiles {
		bank := b
		n := bt.LLC.InvalidateMatching(func(ln cache.Line) bool {
			if int(ln.Owner) != to {
				return false
			}
			if c.classifier != nil && c.classifier.IsShared(coherence.PageOf(ln.Addr)) {
				return false
			}
			return c.policy.BankFor(to, ln.Addr) != bank
		})
		if n > 0 {
			c.Stats.InvalLines += uint64(n)
			c.Stats.InvalWalks++
		}
	}
	if c.checkOn {
		c.CheckInvariants("migrate")
	}
}

// SetRate sets core's access-rate scaling in percent (100 = the workload's
// native rate); the scenario executor recomputes it at every boundary from
// the active load-spike and phase-storm windows.
func (c *Chip) SetRate(core, pct int) {
	if pct <= 0 {
		panic(fmt.Sprintf("chip: SetRate with non-positive rate %d%%", pct))
	}
	c.Tiles[core].ratePct = pct
}

// SetThrottle sets core's policy-imposed bandwidth throttle in percent
// (100 = unthrottled). It composes multiplicatively with the scenario-owned
// SetRate: a regulating policy (bankbw) may slow a core the scenario is
// simultaneously spiking without either side clobbering the other.
func (c *Chip) SetThrottle(core, pct int) {
	if pct <= 0 {
		panic(fmt.Sprintf("chip: SetThrottle with non-positive throttle %d%%", pct))
	}
	c.Tiles[core].throttlePct = pct
}

// --- run loop ----------------------------------------------------------------

// Run advances the chip until every core with a workload has first retired
// warmup instructions (caches and allocations settle; statistics excluded)
// and then a measured budget on top, mirroring Section III-C's fast-forward
// plus detailed-window methodology. Cores that finish early keep running so
// pressure on shared resources stays realistic, but their measurement window
// is latched at the crossing.
func (c *Chip) Run(warmup, budget uint64) {
	// A background context never cancels, so the error is statically nil.
	_ = c.RunCtx(context.Background(), warmup, budget)
}

// RunCtx is Run with cooperative cancellation: ctx is polled at every
// quantum boundary (cores are never interrupted mid-quantum), and a canceled
// or expired context stops the chip within one quantum and returns the
// context's error. Measurements latched so far stay readable through
// Results(); end-of-run telemetry is not published for a canceled run.
func (c *Chip) RunCtx(ctx context.Context, warmup, budget uint64) error {
	c.mustLive()
	if budget == 0 {
		panic("chip: zero instruction budget")
	}
	active := 0
	for _, t := range c.Tiles {
		if t.gen != nil {
			active++
		}
	}
	if active == 0 && (c.hook == nil || !c.hook.Pending(c.now)) {
		panic("chip: no workloads assigned")
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// The completion check runs before the quantum advances (not after,
		// inside the same iteration) so a chip restored from a snapshot
		// taken at the final boundary stops immediately instead of running
		// one extra quantum; for uninterrupted runs the sequencing is
		// identical. A boundary hook with a pending arrival holds the run
		// open: time keeps advancing (possibly with no core running) until
		// the scripted workload lands and finishes its own window.
		remaining := 0
		for _, t := range c.Tiles {
			if t.gen != nil && t.doneCycle == 0 {
				remaining++
			}
		}
		if remaining == 0 && (c.hook == nil || !c.hook.Pending(c.now)) {
			break
		}
		qEnd := c.now + c.Cfg.Quantum
		for i, t := range c.Tiles {
			if t.gen == nil {
				continue
			}
			c.advanceCore(i, qEnd, warmup, budget)
		}
		c.now = qEnd
		c.events.RunUntil(c.now)
		if c.hook != nil {
			c.hook.OnBoundary(c.now)
		}
		c.policy.Tick(c.now)
		c.quantumBookkeeping()
		if c.checkOn {
			c.CheckInvariants("quantum")
		}
		if c.rec != nil {
			c.sampleQuanta++
			if c.sampleQuanta >= c.sampleEvery {
				c.sampleQuanta = 0
				c.emitSamples()
			}
		}
		if c.ckptFn != nil {
			c.ckptQuanta++
			if c.ckptQuanta >= c.ckptEvery {
				c.ckptQuanta = 0
				c.ckptFn(c.now)
			}
		}
	}
	c.events.Drain()
	if c.checkOn {
		c.CheckInvariants("end")
	}
	if c.rec != nil {
		c.publishTelemetry()
	}
	return nil
}

// advanceCore issues accesses until the core's local clock passes qEnd.
// What stays fixed for the quantum (the tile, its generator, the composed
// rate and the private hit latencies) is read once, outside the loop.
func (c *Chip) advanceCore(i int, qEnd, warmup, budget uint64) {
	t := c.Tiles[i]
	core, gen := t.Core, t.gen
	pct := t.ratePct
	if t.throttlePct != 100 {
		// A regulating policy's throttle composes multiplicatively with
		// the scenario's rate so neither overwrites the other.
		pct = max(pct*t.throttlePct/100, 1)
	}
	lat := c.privateLatencies()
	for core.Cycle() < qEnd {
		acc := gen.Next()
		gap := acc.Gap
		if pct != 100 {
			// A load spike compresses the non-memory work between accesses,
			// raising the LLC-bound request rate by pct/100; a throttle
			// stretches it the other way.
			gap = gap * 100 / pct
		}
		core.AdvanceNonMem(gap)
		core.Memory(c.access(i, t, &lat, t.base+acc.Line, acc.Write))
		// Both window checks subtract before comparing: warmBase/startInstr
		// are latched on tiles whose cores already retired instructions when
		// the occupant attached, so the thresholds are relative, not
		// absolute.
		if !t.warmed && core.Instructions()-t.warmBase >= warmup {
			core.Drain()
			t.warmed = true
			t.startCycle = core.Cycle()
			t.startInstr = core.Instructions()
			t.startLLCAcc = t.LLCAccesses
			t.startMemF = t.MemFetches
		}
		if t.warmed && t.doneCycle == 0 && core.Instructions()-t.startInstr >= budget {
			core.Drain()
			t.doneCycle = core.Cycle()
			t.doneInstr = core.Instructions()
			t.doneLLCAcc = t.LLCAccesses
			t.doneMemF = t.MemFetches
		}
	}
}

// idle tracking: quanta in a row with no LLC traffic.
func (c *Chip) quantumBookkeeping() {
	for _, t := range c.Tiles {
		if t.LLCAccesses == t.lastLLCAccesses {
			t.idleStreak++
		} else {
			t.idleStreak = 0
		}
		t.lastLLCAccesses = t.LLCAccesses
	}
}

// privateLatencies is the load-to-use latency of a reference served by
// each private level, indexed by cache.Level; the MissL2 entry is unused.
func (c *Chip) privateLatencies() [3]uint64 {
	l := c.Cfg.Lat
	return [3]uint64{cache.HitL1: l.L1Hit, cache.HitL2: l.L1Hit + l.L2Tag + l.L2Data}
}

// access performs one memory reference for core i, whose tile is t, and
// returns its latency. One fused step serves it from the private L1/L2 pair
// (lat is privateLatencies, read once per quantum by the caller); only an
// L2 miss goes on to the LLC.
func (c *Chip) access(i int, t *Tile, lat *[3]uint64, line uint64, write bool) uint64 {
	if lvl := cache.AccessPrivate(t.L1, t.L2, line, write); lvl != cache.MissL2 {
		return lat[lvl]
	}
	return c.accessLLC(i, t, line, write)
}

// accessLLC completes a reference that missed core i's private caches: the
// LLC bank lookup, on a miss the memory fetch and partitioned insertion,
// then the private refill. It returns the reference's whole latency.
func (c *Chip) accessLLC(i int, t *Tile, line uint64, write bool) uint64 {
	// L2 miss: the UMON observes the LLC-bound stream.
	t.Mon.Access(line)
	t.LLCAccesses++

	// Bank selection: shared pages (multithreaded mode) use S-NUCA; private
	// pages follow the policy's mapping. Line-interleaved routes index the
	// bank with the bits above the bank field.
	bank, sharedLine := c.routeLine(i, line)
	bt := c.Tiles[bank]
	setIdx := bt.LLC.SetIndex(line)
	if sharedLine || c.interleaved {
		setIdx = c.SnucaSetIdx(bt, line)
	}

	lat := c.Cfg.Lat.L1Hit + c.Cfg.Lat.L2Tag
	lat += c.Net.RoundTrip(i, bank, noc.ClassData)

	if idx, hit := bt.LLC.LookupIdx(setIdx, line, write); hit {
		lat += c.Cfg.Lat.LLCTag + c.Cfg.Lat.LLCData
		if bank == i {
			t.LLCLocalHits++
		} else {
			t.LLCRemoteHits++
		}
		c.markSharer(bt, idx, i)
		c.fillPrivate(t, line, write)
		return lat
	}
	// LLC miss: fetch from memory through the bank.
	lat += c.Cfg.Lat.LLCTag
	memLat, mcuTile := c.Mem.Access(line, t.Core.Cycle()+lat)
	lat += c.Net.RoundTrip(bank, mcuTile, noc.ClassData)
	lat += memLat
	t.MemFetches++

	mask := c.insertMask(i, bank, sharedLine)
	owner := i
	if sharedLine {
		owner = cache.NoOwner
		c.Stats.SharedInserts++
	}
	ins, _, _ := bt.LLC.InsertIdx(setIdx, line, owner, write, mask)
	c.markSharer(bt, ins, i)
	c.fillPrivate(t, line, write)
	return lat
}

// routeLine picks the LLC bank for a line accessed by core i.
func (c *Chip) routeLine(i int, line uint64) (bank int, shared bool) {
	if c.classifier != nil {
		cls, reclassified := c.classifier.Access(line, i)
		if reclassified {
			c.Stats.PageReclassify++
			c.InvalidatePageEverywhere(coherence.PageOf(line))
		}
		if cls == coherence.ClassShared {
			return c.SnucaBank(line), true
		}
	}
	return c.policy.BankFor(i, line), false
}

// insertMask resolves the way mask for an insertion.
func (c *Chip) insertMask(core, bank int, shared bool) uint64 {
	all := c.Tiles[bank].LLC.AllMask()
	if shared {
		return all
	}
	mask := c.policy.WayMask(core, bank)
	if mask == 0 {
		c.Stats.MaskFallbacks++
		return all
	}
	return mask & all
}

// fillPrivate installs the line into the requesting core's L2 and L1.
func (c *Chip) fillPrivate(t *Tile, line uint64, write bool) {
	t.L2.Fill(line, write)
	t.L1.Fill(line, write)
}

// markSharer records core in an LLC line's directory bits. idx is the flat
// index LookupIdx/InsertIdx already located — re-walking the set here would
// double the tag-array work of every LLC access.
func (c *Chip) markSharer(bt *Tile, idx int, core int) {
	if idx >= 0 && core < 64 {
		bt.LLC.OrSharers(idx, uint64(1)<<uint(core))
	}
}

// backInvalidate enforces inclusion: when an LLC line leaves bank, every
// private copy recorded in the directory is dropped, with coherence messages
// counted.
func (c *Chip) backInvalidate(bank int, ln cache.Line) {
	if ln.Sharers == 0 {
		return
	}
	for s := ln.Sharers; s != 0; s &= s - 1 {
		core := bits.TrailingZeros64(s)
		if core >= len(c.Tiles) {
			break
		}
		t := c.Tiles[core]
		if _, ok := t.L2.InvalidateLine(ln.Addr); ok {
			c.Net.Latency(bank, core, noc.ClassCoherence)
		}
		t.L1.InvalidateLine(ln.Addr)
	}
}

// --- results -----------------------------------------------------------------

// CoreResult is one core's measured performance.
type CoreResult struct {
	Core         int
	Instructions uint64
	Cycles       uint64 // cycles to retire the instruction budget
	IPC          float64
	MPKI         float64 // LLC-bound misses (L2 misses) per kilo-instruction
	MemMPKI      float64 // memory fetches per kilo-instruction
	LocalHitFrac float64 // fraction of LLC hits served by the home bank
	MLP          float64
}

// Results returns per-core results after Run: workloads that departed
// mid-run first (in departure order, windows latched at departure), then the
// live tiles in core order. Cores without workloads are omitted. A core id
// can appear twice when a scenario re-populates a tile whose first occupant
// departed.
func (c *Chip) Results() []CoreResult {
	out := make([]CoreResult, 0, len(c.departed))
	out = append(out, c.departed...)
	for i, t := range c.Tiles {
		if t.gen == nil {
			continue
		}
		out = append(out, c.coreResult(i))
	}
	return out
}

// coreResult assembles one live core's measured window.
func (c *Chip) coreResult(i int) CoreResult {
	t := c.Tiles[i]
	endCycle, endInstr := t.doneCycle, t.doneInstr
	endLLC, endMemF := t.doneLLCAcc, t.doneMemF
	if endCycle == 0 {
		endCycle = t.Core.Cycle()
		endInstr = t.Core.Instructions()
		endLLC = t.LLCAccesses
		endMemF = t.MemFetches
	}
	instr := endInstr - t.startInstr
	cycles := endCycle - t.startCycle
	r := CoreResult{
		Core:         i,
		Instructions: instr,
		Cycles:       cycles,
		MLP:          t.Core.MLP(),
	}
	if cycles > 0 {
		r.IPC = float64(instr) / float64(cycles)
	}
	if instr > 0 {
		r.MPKI = float64(endLLC-t.startLLCAcc) / float64(instr) * 1000
		r.MemMPKI = float64(endMemF-t.startMemF) / float64(instr) * 1000
	}
	local := t.LLCLocalHits - t.localHitsBase
	remote := t.LLCRemoteHits - t.remoteHitsBase
	if hits := local + remote; hits > 0 {
		r.LocalHitFrac = float64(local) / float64(hits)
	}
	return r
}
