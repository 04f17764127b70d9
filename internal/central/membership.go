package central

// This file implements chip.MembershipHandler for the ideal centralized
// policy. The centralized scheme recomputes the entire chip-wide allocation
// from fresh UMON curves every epoch, so membership events need far less
// surgery than DELTA's distributed state: arrivals and departures only reset
// the per-thread smoothing history (the chip resets the monitor itself), and
// the next epoch's Lookahead absorbs the population change wholesale. A
// departed partition keeps its assignment until that epoch — its ways hold no
// lines (the chip invalidated them) and Lookahead's MinWays floor applies to
// every partition, occupied or not, matching the harness's reserve invariant.
//
// Migration is the only event that moves placement state: the chip relabels
// the thread's LLC lines from partition `from` to partition `to`, so the
// assignment columns swap bank by bank (preserving every bank's way sum), the
// thread's CBT and smoothed miss curve follow it, and the vacated partition
// gets a fresh uniform table.

// WorkloadArrived implements chip.MembershipHandler.
func (p *Ideal) WorkloadArrived(core int, now uint64) {
	if p.smooth != nil {
		p.smooth[core] = nil // next epoch's curve starts a fresh EWMA
	}
}

// WorkloadDeparted implements chip.MembershipHandler.
func (p *Ideal) WorkloadDeparted(core int, now uint64) {
	if p.smooth != nil {
		p.smooth[core] = nil
	}
}

// WorkloadMigrated implements chip.MembershipHandler: partition state follows
// the thread. Column swaps keep each bank summing to exactly its
// associativity, so the assign↔masks self-check holds without a remap.
func (p *Ideal) WorkloadMigrated(from, to int, now uint64) {
	for b := 0; b < p.n; b++ {
		p.assign[b][to], p.assign[b][from] = p.assign[b][from], p.assign[b][to]
	}
	p.alloc[to], p.alloc[from] = p.alloc[from], p.alloc[to]
	if p.smooth != nil {
		p.smooth[to], p.smooth[from] = p.smooth[from], nil
	}
	// The thread's table travels unchanged: after the column swap, partition
	// `to` owns capacity in exactly the banks the table already maps, so the
	// relabeled lines keep hitting. The vacated partition gets a fresh
	// home-only table; the next remap rebuilds it incrementally anyway.
	p.MoveTable(from, to)
	p.setOwners()
}
