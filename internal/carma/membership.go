package carma

// This file implements chip.MembershipHandler. Lots are property: they
// follow the thread on migration, and a departing thread's non-reserved
// holdings revert to the home cores of the banks they sit in (the market's
// default owners), keeping every bank fully owned for the invariant sweep.

// WorkloadArrived implements chip.MembershipHandler: a newcomer enters the
// market with a full budget and whatever its tile already owns (at least
// the reserved home lots).
func (p *Policy) WorkloadArrived(core int, now uint64) {
	p.budget[core] = p.cfg.MaxBudget
}

// WorkloadDeparted implements chip.MembershipHandler: the estate is settled —
// non-reserved lots revert to their banks' home cores, the budget is zeroed,
// and the affected tables rebuild (the chip already invalidated the departed
// thread's lines; reverted lots may also strand other cores' buckets, which
// rebuildTable invalidates).
func (p *Policy) WorkloadDeparted(core int, now uint64) {
	p.budget[core] = 0
	changed := false
	for b := 0; b < p.n; b++ {
		for l := p.cfg.ReserveLots; l < p.lots; l++ {
			if int(p.lotOwner[b][l]) == core && b != core {
				p.setLot(b, l, b)
				changed = true
			}
		}
	}
	if changed {
		p.rebuildTable(core)
	}
}

// WorkloadMigrated implements chip.MembershipHandler: the thread's budget,
// non-reserved lots and placement table move with it. The vacated tile keeps
// only its reserved home lots and an empty budget, like any unoccupied tile.
func (p *Policy) WorkloadMigrated(from, to int, now uint64) {
	p.budget[to], p.budget[from] = p.budget[from], 0
	for b := 0; b < p.n; b++ {
		for l := p.cfg.ReserveLots; l < p.lots; l++ {
			if int(p.lotOwner[b][l]) == from {
				p.setLot(b, l, to)
			}
		}
	}
	// The thread's table travels (the chip has already relabeled its lines
	// to the new core), then rebuilds incrementally against the transferred
	// holdings so only the buckets that truly moved are invalidated. The
	// vacated tile reverts to a home-only table over its reserved lots.
	p.MoveTable(from, to)
	p.rebuildTable(to)
}
