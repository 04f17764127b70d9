// Package bankbw implements per-bank bandwidth regulation as a wrapping
// chip.Policy: it delegates placement and partitioning to any base policy,
// counts per-bank, per-core LLC accesses on the way through BankFor, and at
// a fixed window of quanta throttles the cores hogging over-budget banks via
// chip.SetThrottle. Regulation is an orthogonal enforcement axis — capacity
// policies decide *where* data lives, this one decides *how fast* each core
// may hit it — so it composes with every registered base.
package bankbw

import (
	"errors"
	"fmt"

	"delta/internal/cbt"
	"delta/internal/chip"
	"delta/internal/sim"
)

// Config tunes the regulator. DefaultConfig sets every knob; Validate is
// its range check.
type Config struct {
	// WindowQuanta is the regulation window length in scheduling quanta.
	WindowQuanta int
	// HeadroomPct marks a bank hot when its window accesses exceed this
	// percentage of the per-bank mean; at least 100.
	HeadroomPct int
	// ThrottlePct is the access-rate limit applied to an offending core,
	// in percent of its native rate, in [1, 100].
	ThrottlePct int
	// MinAccesses exempts banks with fewer window accesses than this from
	// regulation, so idle-phase noise never throttles anyone.
	MinAccesses uint64
}

// DefaultConfig returns the default regulation parameters.
func DefaultConfig() Config {
	return Config{WindowQuanta: 4, HeadroomPct: 150, ThrottlePct: 50, MinAccesses: 64}
}

// Stats counts the regulator's activity. The json tags are its snapshot
// form.
type Stats struct {
	Windows   uint64 `json:"windows"`   // regulation windows evaluated
	Throttled uint64 `json:"throttled"` // core-windows spent throttled
}

// Policy wraps a base chip.Policy with per-bank bandwidth regulation.
type Policy struct {
	base chip.Policy
	cfg  Config
	c    *chip.Chip
	n    int

	quanta   int        // quanta elapsed in the open window
	acc      [][]uint64 // [bank][core] window access counts
	throttle []int      // current per-core throttle (100 = none)
	bankTot  []uint64   // scratch, reused every window
	hot      []bool     // scratch, reused every window

	Stats Stats
}

// Validate reports out-of-range knobs.
func (cfg Config) Validate() error {
	switch {
	case cfg.WindowQuanta < 1:
		return errors.New("bankbw: WindowQuanta must be positive")
	case cfg.HeadroomPct < 100:
		return errors.New("bankbw: HeadroomPct below 100 throttles under-average banks")
	case cfg.ThrottlePct < 1 || cfg.ThrottlePct > 100:
		return errors.New("bankbw: ThrottlePct out of [1,100]")
	case cfg.MinAccesses < 1:
		return errors.New("bankbw: MinAccesses must be positive")
	}
	return nil
}

// New wraps base with the regulator; cfg must pass Validate. It panics on
// a nil base or one that is itself a regulator: stacking windows would
// fight over the same throttle.
func New(base chip.Policy, cfg Config) *Policy {
	if base == nil {
		panic("bankbw: nil base policy")
	}
	if _, ok := base.(*Policy); ok {
		panic("bankbw: cannot wrap another bankbw regulator")
	}
	return &Policy{base: base, cfg: cfg}
}

// Base returns the wrapped policy.
func (p *Policy) Base() chip.Policy { return p.base }

// Unwrap returns the policy a regulator wraps, or p itself when p is not a
// regulator: what introspection type-asserts against.
func Unwrap(p chip.Policy) chip.Policy {
	if bw, ok := p.(*Policy); ok {
		return bw.base
	}
	return p
}

// Name implements chip.Policy.
func (p *Policy) Name() string { return "bankbw" }

// Attach implements chip.Policy.
func (p *Policy) Attach(c *chip.Chip) {
	p.base.Attach(c)
	p.c = c
	p.n = c.Cores()
	p.acc = make([][]uint64, p.n)
	for b := range p.acc {
		p.acc[b] = make([]uint64, p.n)
	}
	p.throttle = make([]int, p.n)
	for i := range p.throttle {
		p.throttle[i] = 100
	}
	p.bankTot = make([]uint64, p.n)
	p.hot = make([]bool, p.n)
}

// BankFor implements chip.Policy, counting the access against the bank the
// base routes it to. This is the LLC access path: no allocations, two slice
// indexes on top of the base's own lookup.
func (p *Policy) BankFor(core int, lineAddr uint64) int {
	b := p.base.BankFor(core, lineAddr)
	p.acc[b][core]++
	return b
}

// WayMask implements chip.Policy by delegation.
func (p *Policy) WayMask(core, bank int) uint64 { return p.base.WayMask(core, bank) }

// Tick implements chip.Policy: the base ticks first (it may repartition),
// then the window advances and, when full, regulation runs.
func (p *Policy) Tick(now uint64) {
	p.base.Tick(now)
	p.quanta++
	if p.quanta < p.cfg.WindowQuanta {
		return
	}
	p.quanta = 0
	p.evaluate()
}

// evaluate closes a window: find banks over HeadroomPct of the mean load,
// throttle each hot bank's over-fair-share cores, release everyone else.
func (p *Policy) evaluate() {
	p.Stats.Windows++
	total := uint64(0)
	for b := 0; b < p.n; b++ {
		t := uint64(0)
		for _, a := range p.acc[b] {
			t += a
		}
		p.bankTot[b] = t
		total += t
	}
	mean := float64(total) / float64(p.n)
	threshold := mean * float64(p.cfg.HeadroomPct) / 100
	for b := 0; b < p.n; b++ {
		p.hot[b] = p.bankTot[b] >= p.cfg.MinAccesses && float64(p.bankTot[b]) > threshold
	}
	for i := 0; i < p.n; i++ {
		pct := 100
		if p.c.HasWorkload(i) && p.overShare(i) {
			pct = p.cfg.ThrottlePct
			p.Stats.Throttled++
		}
		p.throttle[i] = pct
		p.c.SetThrottle(i, pct)
	}
	for b := 0; b < p.n; b++ {
		for i := range p.acc[b] {
			p.acc[b][i] = 0
		}
	}
}

// overShare reports whether core exceeds its fair share of any hot bank.
func (p *Policy) overShare(core int) bool {
	for b := 0; b < p.n; b++ {
		if !p.hot[b] {
			continue
		}
		contributors := 0
		for _, a := range p.acc[b] {
			if a > 0 {
				contributors++
			}
		}
		if contributors == 0 {
			continue
		}
		if p.acc[b][core] > p.bankTot[b]/uint64(contributors) {
			return true
		}
	}
	return false
}

// Config returns the regulator's configuration.
func (p *Policy) Config() Config { return p.cfg }

// Throttle returns core's current throttle percentage (100 = unthrottled).
func (p *Policy) Throttle(core int) int { return p.throttle[core] }

// --- optional-interface forwarding ------------------------------------------

// LineInterleaved forwards the base's set-indexing mode; false (the chip's
// default for policies without the method) when the base has no opinion.
func (p *Policy) LineInterleaved() bool {
	if ip, ok := p.base.(interface{ LineInterleaved() bool }); ok {
		return ip.LineInterleaved()
	}
	return false
}

// ExclusiveWayPartitioning forwards the base's partitioning discipline.
func (p *Policy) ExclusiveWayPartitioning() bool {
	if ep, ok := p.base.(chip.ExclusivePartitioner); ok {
		return ep.ExclusiveWayPartitioning()
	}
	return false
}

// Table forwards the base's CBT for the invariant harness; nil when the
// base places without tables.
func (p *Policy) Table(core int) *cbt.Table {
	if tp, ok := p.base.(chip.TableProvider); ok {
		return tp.Table(core)
	}
	return nil
}

// HandleControl forwards reified control messages to the base. A payload
// the base cannot handle is the same bug the chip panics on for unwrapped
// policies.
func (p *Policy) HandleControl(m sim.Msg, now uint64) {
	if h, ok := p.base.(chip.ControlHandler); ok {
		h.HandleControl(m, now)
		return
	}
	if m.Kind != sim.MsgNoop {
		panic(fmt.Sprintf("bankbw: base policy %s cannot handle control message %q", p.base.Name(), m.Kind))
	}
}

// WorkloadArrived implements chip.MembershipHandler: the base admits the
// newcomer, then the regulator clears its window state (the chip has already
// reset the tile's throttle).
func (p *Policy) WorkloadArrived(core int, now uint64) {
	if h, ok := p.base.(chip.MembershipHandler); ok {
		h.WorkloadArrived(core, now)
	}
	p.clearCore(core)
}

// WorkloadDeparted implements chip.MembershipHandler.
func (p *Policy) WorkloadDeparted(core int, now uint64) {
	if h, ok := p.base.(chip.MembershipHandler); ok {
		h.WorkloadDeparted(core, now)
	}
	p.clearCore(core)
}

// WorkloadMigrated implements chip.MembershipHandler: the open window's
// counts and the throttle verdict follow the thread, mirroring the chip's
// own tile-state swap.
func (p *Policy) WorkloadMigrated(from, to int, now uint64) {
	if h, ok := p.base.(chip.MembershipHandler); ok {
		h.WorkloadMigrated(from, to, now)
	}
	for b := 0; b < p.n; b++ {
		p.acc[b][to], p.acc[b][from] = p.acc[b][from], 0
	}
	p.throttle[to], p.throttle[from] = p.throttle[from], 100
}

// clearCore resets a core's window state after an arrival or departure.
func (p *Policy) clearCore(core int) {
	for b := 0; b < p.n; b++ {
		p.acc[b][core] = 0
	}
	p.throttle[core] = 100
}

// CheckInvariants implements chip.SelfChecker: the regulator's own state
// must be well-formed and must agree with the chip, then the base checks
// itself.
func (p *Policy) CheckInvariants() error {
	for i, pct := range p.throttle {
		if pct != 100 && pct != p.cfg.ThrottlePct {
			return fmt.Errorf("bankbw: core %d throttle %d%% is neither 100%% nor the configured %d%%",
				i, pct, p.cfg.ThrottlePct)
		}
	}
	if sc, ok := p.base.(chip.SelfChecker); ok {
		return sc.CheckInvariants()
	}
	return nil
}
