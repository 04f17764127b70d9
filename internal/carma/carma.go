// Package carma implements a CARMA-style market-based allocation policy
// (PAPERS.md: CARMA). The LLC is sold in fixed-size lots — contiguous way
// groups within a bank — and every core holds a credit budget that
// regenerates each epoch. At every epoch boundary each non-reserved lot is
// put up in a sealed-bid auction: the incumbent defends with the misses it
// would incur by losing the lot, challengers bid the misses they would avoid
// by winning it, both discounted by distance to the bank and normalized by
// access volume. The winner pays its bid from its budget, which makes
// sustained hoarding self-limiting — an adversarial contrast to DELTA's
// cooperative challenge/cede protocol.
//
// The first ReserveLots lots of every bank stay with the bank's home core
// permanently, so each core always owns capacity in its home bank: its CBT
// is never empty, and fast-forward prefill always has a place to put lines.
package carma

import (
	"errors"
	"fmt"

	"delta/internal/cbt"
	"delta/internal/chip"
	"delta/internal/sim"
	"delta/internal/umon"
)

// Config tunes the market. DefaultConfig sets every knob; Validate and
// ValidateWays are its range checks.
type Config struct {
	// Interval between auction epochs, in cycles.
	Interval uint64
	// LotWays is the lot size in ways; the associativity must divide evenly.
	LotWays int
	// ReserveLots lots per bank stay with the bank's home core and are
	// never auctioned; at least one.
	ReserveLots int
	// MaxBudget caps a core's credits.
	MaxBudget float64
	// Regen credits are added to every occupied core's budget each epoch.
	Regen float64
	// BidScale converts a normalized miss delta (misses per access) into
	// credits.
	BidScale float64
}

// DefaultConfig mirrors the paper's epoch cadence (1 ms at 4 GHz).
func DefaultConfig() Config {
	return Config{
		Interval:    4_000_000,
		LotWays:     4,
		ReserveLots: 1,
		MaxBudget:   100,
		Regen:       25,
		BidScale:    100,
	}
}

// Stats counts the market's activity.
type Stats struct {
	Auctions     uint64  // lots put up for auction
	LotsTraded   uint64  // lots that changed owner
	CreditsSpent float64 // total credits paid by winners
	InvalLines   uint64  // lines invalidated by the resulting CBT moves
}

// Policy is the auction policy (chip.Policy). Lots are enforced through
// the embedded CBTs and WP units, the same mechanism as DELTA's.
type Policy struct {
	chip.Enforcement

	cfg  Config
	c    *chip.Chip
	n    int
	w    int
	lots int // lots per bank

	tick     *sim.Ticker
	lotOwner [][]int16 // [bank][lot] -> owning core
	budget   []float64

	Stats Stats
}

// Validate reports out-of-range knobs. Whether the lots fit the LLC
// depends on the chip: ValidateWays checks that once the associativity is
// known, and Attach panics on a chip it rejects.
func (cfg Config) Validate() error {
	switch {
	case cfg.Interval == 0:
		return errors.New("carma: zero auction interval")
	case cfg.LotWays < 1:
		return errors.New("carma: LotWays must be positive")
	case cfg.ReserveLots < 1:
		return errors.New("carma: ReserveLots must be positive")
	case !(cfg.MaxBudget > 0):
		return errors.New("carma: MaxBudget must be positive")
	case !(cfg.Regen > 0):
		return errors.New("carma: Regen must be positive")
	case !(cfg.BidScale > 0):
		return errors.New("carma: BidScale must be positive")
	}
	return nil
}

// ValidateWays reports whether the lot geometry of a configuration Validate
// accepts fits banks of the given associativity: LotWays must divide it,
// and ReserveLots must leave at least one lot per bank to auction.
func (cfg Config) ValidateWays(ways int) error {
	if ways%cfg.LotWays != 0 {
		return fmt.Errorf("carma: %d ways not divisible into lots of %d", ways, cfg.LotWays)
	}
	if lots := ways / cfg.LotWays; cfg.ReserveLots >= lots {
		return fmt.Errorf("carma: %d reserved lots leave nothing to auction of %d", cfg.ReserveLots, lots)
	}
	return nil
}

// New builds the policy; cfg must pass Validate.
func New(cfg Config) *Policy {
	return &Policy{cfg: cfg}
}

// Name implements chip.Policy.
func (p *Policy) Name() string { return "carma" }

// Attach implements chip.Policy: every bank's lots start with its home core
// (the private-partition layout) and every budget starts full.
func (p *Policy) Attach(c *chip.Chip) {
	p.c = c
	p.InitEnforcement(c)
	p.n = c.Cores()
	p.w = c.Ways()
	if err := p.cfg.ValidateWays(p.w); err != nil {
		panic(err.Error())
	}
	p.lots = p.w / p.cfg.LotWays
	p.tick = sim.NewTicker(p.cfg.Interval, p.cfg.Interval)
	p.lotOwner = make([][]int16, p.n)
	p.budget = make([]float64, p.n)
	for b := 0; b < p.n; b++ {
		p.lotOwner[b] = make([]int16, p.lots)
		for l := range p.lotOwner[b] {
			p.lotOwner[b][l] = int16(b)
		}
		p.budget[b] = p.cfg.MaxBudget
	}
}

// setLot hands lot l of bank to core, in the market and in the bank's WP
// unit.
func (p *Policy) setLot(bank, l, core int) {
	p.lotOwner[bank][l] = int16(core)
	for w := l * p.cfg.LotWays; w < (l+1)*p.cfg.LotWays; w++ {
		p.SetOwner(bank, w, core)
	}
}

// Tick implements chip.Policy: one budget-regeneration + auction round per
// interval.
func (p *Policy) Tick(now uint64) {
	if p.tick.Due(now) == 0 {
		return
	}
	curves := make([]umon.Curve, p.n)
	active := make([]bool, p.n)
	for i := 0; i < p.n; i++ {
		curves[i] = p.c.Monitor(i).Epoch()
		active[i] = p.c.HasWorkload(i) && !curves[i].Empty()
		if p.c.HasWorkload(i) {
			p.budget[i] += p.cfg.Regen
			if p.budget[i] > p.cfg.MaxBudget {
				p.budget[i] = p.cfg.MaxBudget
			}
		}
		// Sealed bids travel to the auctioneer and the outcome returns, the
		// same 2N control pattern as the centralized schemes.
		p.c.SendControl(i, 0, sim.Msg{Kind: sim.MsgNoop})
		p.c.SendControl(0, i, sim.Msg{Kind: sim.MsgNoop})
		p.c.CoreInterval(i) // keep interval windows rolling
	}

	owned := make([]int, p.n)
	for i := range owned {
		for b := 0; b < p.n; b++ {
			owned[i] += p.Ways(i, b)
		}
	}
	changed := make([]bool, p.n)
	for b := 0; b < p.n; b++ {
		for l := p.cfg.ReserveLots; l < p.lots; l++ {
			p.Stats.Auctions++
			inc := int(p.lotOwner[b][l])
			// The incumbent defends for free with the misses it would incur
			// by shrinking; an empty incumbent defends nothing.
			defense := 0.0
			if active[inc] {
				defense = p.value(curves[inc], owned[inc], -p.cfg.LotWays, inc, b)
			}
			best, bestBid := -1, 0.0
			for i := 0; i < p.n; i++ {
				if i == inc || !active[i] {
					continue
				}
				bid := p.value(curves[i], owned[i], +p.cfg.LotWays, i, b)
				if cap := 0.5 * p.budget[i]; bid > cap {
					bid = cap
				}
				if bid > bestBid {
					best, bestBid = i, bid
				}
			}
			if best >= 0 && bestBid > defense {
				p.setLot(b, l, best)
				p.budget[best] -= bestBid
				p.Stats.LotsTraded++
				p.Stats.CreditsSpent += bestBid
				owned[best] += p.cfg.LotWays
				owned[inc] -= p.cfg.LotWays
				changed[best], changed[inc] = true, true
			}
		}
	}
	for i := 0; i < p.n; i++ {
		if changed[i] {
			p.rebuildTable(i)
		}
	}
}

// value prices a lot for core: the misses it avoids (delta > 0) or incurs
// (delta < 0) at its current holdings, per access, scaled to credits and
// discounted by the core's distance to the bank.
func (p *Policy) value(c umon.Curve, owned, delta, core, bank int) float64 {
	var miss float64
	if delta >= 0 {
		miss = c.MissesAvoided(owned, delta)
	} else {
		miss = c.MissesIncurred(owned, -delta)
	}
	return p.cfg.BidScale * miss / (c.Accesses + 1) / float64(1+p.c.Topo.Dist(core, bank))
}

// rebuildTable rebuilds core's CBT from its current lot holdings, home bank
// first then nearest-first, and invalidates the buckets that moved.
func (p *Policy) rebuildTable(core int) {
	shares := make([]cbt.Share, 0, 4)
	if w := p.Ways(core, core); w > 0 {
		shares = append(shares, cbt.Share{Bank: core, Ways: w})
	}
	for _, b := range p.c.Topo.NeighborsByDistance(core) {
		if w := p.Ways(core, b); w > 0 {
			shares = append(shares, cbt.Share{Bank: b, Ways: w})
		}
	}
	if len(shares) == 0 {
		// Reserved home lots make this unreachable with ReserveLots > 0,
		// but a zero-reserve config must still keep the table valid.
		shares = append(shares, cbt.Share{Bank: core, Ways: 1})
	}
	next := cbt.BuildIncremental(p.Table(core), shares)
	p.Stats.InvalLines += uint64(p.Remap(core, next))
}

// Config returns the policy's configuration.
func (p *Policy) Config() Config { return p.cfg }

// Budget returns core's current credit balance.
func (p *Policy) Budget(core int) float64 { return p.budget[core] }

// CheckInvariants implements chip.SelfChecker: reserved lots stay home,
// every lot has a valid owner, and the WP units' masks mirror the lots way
// for way.
func (p *Policy) CheckInvariants() error {
	lotMask := (uint64(1) << uint(p.cfg.LotWays)) - 1
	want := make([]uint64, p.n)
	for b := 0; b < p.n; b++ {
		clear(want)
		for l, o := range p.lotOwner[b] {
			if o < 0 || int(o) >= p.n {
				return fmt.Errorf("carma: bank %d lot %d owned by invalid core %d", b, l, o)
			}
			if l < p.cfg.ReserveLots && int(o) != b {
				return fmt.Errorf("carma: bank %d reserved lot %d owned by core %d, want home %d", b, l, o, b)
			}
			want[o] |= lotMask << uint(l*p.cfg.LotWays)
		}
		for core, m := range want {
			if got := p.WayMask(core, b); got != m {
				return fmt.Errorf("carma: bank %d core %d mask %#x, lots grant %#x", b, core, got, m)
			}
		}
	}
	for i, bud := range p.budget {
		if bud < 0 || bud > p.cfg.MaxBudget {
			return fmt.Errorf("carma: core %d budget %v out of [0, %v]", i, bud, p.cfg.MaxBudget)
		}
	}
	return nil
}
