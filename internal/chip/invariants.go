package chip

import (
	"errors"
	"fmt"
	"strings"

	"delta/internal/cache"
	"delta/internal/cbt"
	"delta/internal/invariant"
	"delta/internal/noc"
)

// SelfChecker is implemented by policies that can validate their own internal
// state (way-ownership vs. derived allocation tables, placement matrices vs.
// masks). The chip's invariant sweep invokes it alongside the generic checks.
type SelfChecker interface {
	CheckInvariants() error
}

// TableProvider is implemented by policies that place data through per-core
// Cache Bank Tables; the sweep validates each table's structural invariants
// (full bucket coverage, exactly one owning bank per bucket).
type TableProvider interface {
	Table(core int) *cbt.Table
}

// ExclusivePartitioner is implemented by policies whose WayMask values form
// an exact partition of every bank's ways (DELTA, the ideal centralized
// scheme). For them the sweep additionally checks mask disjointness; shared
// policies only need coverage.
type ExclusivePartitioner interface {
	ExclusiveWayPartitioning() bool
}

// CheckInvariants runs the full simulator-wide invariant sweep and panics
// with every violation found, labelled with point ("quantum", "remap",
// "end", ...). It is a no-op unless Config.Check enabled the harness, so the
// disabled-mode cost is one boolean test at each call site.
//
// Checked properties (see DESIGN.md "Validation & invariants" for the paper
// sources):
//   - cache counter conservation: Hits+Misses == Accesses for every L1, L2
//     and LLC bank;
//   - per-partition occupancy accounting equals a recount of valid lines by
//     owner in every bank;
//   - way-partitioning masks cover every way of every bank, and are pairwise
//     disjoint under exclusive-partitioning policies;
//   - every CBT maps every bucket to exactly one existing bank;
//   - directory/inclusion consistency: no line address is resident in two
//     LLC banks; every valid L1 line is backed by the same core's L2; every
//     valid L2 line is backed by an LLC copy whose directory sharer bit for
//     the core is set (sharer bits may be a superset of residents — silent
//     private evictions do not notify the directory — but never a subset);
//   - NoC and memory-controller counters are monotone non-decreasing;
//   - policy self-invariants via SelfChecker.
func (c *Chip) CheckInvariants(point string) {
	if !c.checkOn {
		return
	}
	var errs []error
	add := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}

	exclusive := false
	if ep, ok := c.policy.(ExclusivePartitioner); ok {
		exclusive = ep.ExclusiveWayPartitioning()
	}
	tp, hasTables := c.policy.(TableProvider)

	masks := make([]uint64, c.Cfg.Cores)
	for b, t := range c.Tiles {
		add(invariant.CheckCacheStats(fmt.Sprintf("tile %d L1", b), t.L1.Stats))
		add(invariant.CheckCacheStats(fmt.Sprintf("tile %d L2", b), t.L2.Stats))
		add(invariant.CheckCacheStats(fmt.Sprintf("bank %d LLC", b), t.LLC.Stats))
		add(invariant.CheckOccupancy(fmt.Sprintf("bank %d", b), t.LLC))
		for core := range masks {
			masks[core] = c.policy.WayMask(core, b)
		}
		add(invariant.CheckWayMasks(fmt.Sprintf("bank %d (%s)", b, c.policy.Name()),
			c.Cfg.LLCWays, masks, exclusive))
	}
	if hasTables {
		for i := 0; i < c.Cfg.Cores; i++ {
			// A wrapping policy (bankbw) forwards Table from a base that may
			// not provide one; nil means "no table for this core", not a bug.
			if tbl := tp.Table(i); tbl != nil {
				add(invariant.CheckTable(fmt.Sprintf("core %d CBT", i), tbl, c.Cfg.Cores))
			}
		}
	}
	add(c.checkInclusion())
	add(c.checkMonotone())
	if sc, ok := c.policy.(SelfChecker); ok {
		add(sc.CheckInvariants())
	}

	if len(errs) > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "chip: %d invariant violation(s) at %s (cycle %d):",
			len(errs), point, c.now)
		for _, err := range errs {
			b.WriteString("\n  - ")
			b.WriteString(err.Error())
		}
		panic(b.String())
	}
}

// inclHome is one LLC line's residency record for the inclusion sweep.
type inclHome struct {
	bank    int
	sharers uint64
}

// checkInclusion validates the directory against actual private residency:
// one LLC home per address, L1 ⊆ L2, and L2 ⊆ LLC with the sharer bit set.
// The address map is retained across sweeps (cleared, not reallocated): the
// sweep runs every quantum, and regrowing a hundreds-of-thousands-entry map
// each time dominated the harness's profile.
func (c *Chip) checkInclusion() error {
	if c.inclMap == nil {
		c.inclMap = make(map[uint64]inclHome, 1<<16)
	}
	clear(c.inclMap)
	llc := c.inclMap
	var errs []error
	for b, t := range c.Tiles {
		bank := b
		t.LLC.ForEachLine(func(_ int, ln cache.Line) {
			if prev, ok := llc[ln.Addr]; ok {
				errs = append(errs, fmt.Errorf(
					"line %#x resident in both bank %d and bank %d", ln.Addr, prev.bank, bank))
				return
			}
			llc[ln.Addr] = inclHome{bank: bank, sharers: ln.Sharers}
		})
	}
	for i, t := range c.Tiles {
		core := i
		t.L1.ForEachLine(func(_ int, ln cache.Line) {
			if !t.L2.Probe(ln.Addr) {
				errs = append(errs, fmt.Errorf(
					"core %d L1 holds %#x but its L2 does not (L1 ⊆ L2 broken)", core, ln.Addr))
			}
		})
		t.L2.ForEachLine(func(_ int, ln cache.Line) {
			h, ok := llc[ln.Addr]
			if !ok {
				errs = append(errs, fmt.Errorf(
					"core %d L2 holds %#x but no LLC bank does (inclusion broken)", core, ln.Addr))
				return
			}
			if core < 64 && h.sharers&(1<<uint(core)) == 0 {
				errs = append(errs, fmt.Errorf(
					"core %d L2 holds %#x but bank %d's directory sharer bit is clear",
					core, ln.Addr, h.bank))
			}
		})
	}
	return errors.Join(errs...)
}

// checkMonotone feeds the cumulative NoC, memory and cache counters to the
// monotonicity tracker.
func (c *Chip) checkMonotone() error {
	var errs []error
	add := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	for cls := noc.ClassData; cls <= noc.ClassControl; cls++ {
		add(c.mono.Check(fmt.Sprintf("noc.messages[%d]", cls), c.Net.Stats.Messages[cls]))
		add(c.mono.Check(fmt.Sprintf("noc.hops[%d]", cls), c.Net.Stats.Hops[cls]))
	}
	mt := c.Mem.TotalStats()
	add(c.mono.Check("mem.requests", mt.Requests))
	add(c.mono.Check("mem.queue_delay", mt.QueueDelay))
	for b, t := range c.Tiles {
		add(c.mono.Check(fmt.Sprintf("bank%d.accesses", b), t.LLC.Stats.Accesses))
		add(c.mono.Check(fmt.Sprintf("bank%d.evictions", b), t.LLC.Stats.Evictions))
		add(c.mono.Check(fmt.Sprintf("bank%d.invals", b), t.LLC.Stats.Invals))
	}
	add(c.mono.Check("chip.inval_lines", c.Stats.InvalLines))
	return errors.Join(errs...)
}

// Fingerprint serializes the chip's observable end-of-run state — per-core
// results, per-bank reports, chip counters and the traffic summary — into a
// deterministic string. Two runs with identical configuration and seed must
// produce byte-identical fingerprints; the determinism invariant tests
// compare them directly.
func (c *Chip) Fingerprint() string {
	c.mustLive()
	var b strings.Builder
	for _, r := range c.Results() {
		fmt.Fprintf(&b, "core %d: %+v\n", r.Core, r)
	}
	for _, r := range c.BankReports() {
		fmt.Fprintf(&b, "bank %d: %+v\n", r.Bank, r)
	}
	fmt.Fprintf(&b, "chip: %+v\n", c.Stats)
	fmt.Fprintf(&b, "traffic: %+v\n", c.Traffic())
	fmt.Fprintf(&b, "noc: %+v\n", c.Net.Stats)
	fmt.Fprintf(&b, "mem: %+v\n", c.Mem.TotalStats())
	return b.String()
}
