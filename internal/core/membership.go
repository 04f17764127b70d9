package core

import (
	"math"

	"delta/internal/umon"
)

// This file implements chip.MembershipHandler for DELTA: the policy-side
// reaction to workloads arriving, departing and migrating mid-run (the
// dynamic-scenario engine). The chip has already updated the caches when a
// handler runs — a departed workload's lines are invalidated, a migrated
// workload's lines are relabeled to the destination partition — so the
// handlers only move the distributed protocol's own state: way ownership,
// locality orders, CBTs, gain registers and the monitoring EWMAs.
//
// Protocol messages can be in flight across a membership event (a challenge
// sent one epoch before its sender departs, a gain update racing a
// migration). Rather than trying to cancel them — real hardware could not —
// the handlers leave the message plumbing untouched and the receive paths
// carry guards: a challenge from a partition whose tile no longer runs a
// workload fails, and a won challenge whose winner vanished meanwhile clears
// the gain register it seeded so the stranded ways drain back through the
// ordinary intra-bank moves. Invariants (alloc/WP-unit agreement, the
// MinWays home reserve, the chip-wide cap) hold at every step.

// relabelWays is the membership way move: moveWays without transferWays's
// retreat side effects, marking the bank's gain registers for a fresh
// intra-bank comparison.
func (d *Delta) relabelWays(bank, from, to, max int) int {
	moved := d.moveWays(bank, from, to, max)
	if moved > 0 {
		d.gainDirty[bank] = true
	}
	return moved
}

// WorkloadArrived implements chip.MembershipHandler: admit a newcomer on an
// empty tile. The partition already holds its home-bank reserve (and
// possibly leftover capacity a predecessor could not reclaim under the cap);
// monitoring state restarts from scratch, with pain unknown — hence
// infinite, not zero — until the first epoch, exactly as at Attach.
func (d *Delta) WorkloadArrived(core int, now uint64) {
	d.curve[core] = umon.Curve{}
	d.mlp[core] = 1
	d.pain[core] = math.Inf(1)
	d.pid[core] = core
	d.challenged[core] = make(map[int]bool)
	for b := range d.cooldownUntil[core] {
		d.cooldownUntil[core][b] = 0
	}
	for b := 0; b < d.n; b++ {
		d.bankGain[b][core] = 0
	}
	d.gainDirty[core] = true
	// Inherited leftover capacity (see WorkloadDeparted) becomes addressable:
	// list every bank the partition owns ways in so the CBT maps it.
	for b := 0; b < d.n; b++ {
		if b == core || d.alloc[core][b] == 0 {
			continue
		}
		listed := false
		for _, ob := range d.bankOrder[core] {
			if ob == b {
				listed = true
				break
			}
		}
		if !listed {
			d.bankOrder[core] = append(d.bankOrder[core], b)
		}
	}
	d.rebuildCBT(core)
}

// WorkloadDeparted implements chip.MembershipHandler: reclaim the
// partition's capacity. Remote ways return to their banks' home partitions
// (capped by each receiver's chip-wide allocation limit; ways that would
// push a receiver past the cap stay with the departed partition and drain
// through intra-bank moves, since its gain registers are zeroed here). Home
// ways stay put — the idle-grant path hands them to the next challenger
// wholesale. Monitoring state resets so a later arrival starts clean.
func (d *Delta) WorkloadDeparted(core int, now uint64) {
	var touched []int
	for b := 0; b < d.n; b++ {
		if b == core {
			continue
		}
		w := d.alloc[core][b]
		if w == 0 {
			continue
		}
		if room := d.maxTotal - d.totalWays(b); w > room {
			w = room
		}
		if d.relabelWays(b, core, b, w) > 0 {
			touched = append(touched, b)
		}
	}
	for b := 0; b < d.n; b++ {
		d.bankGain[b][core] = 0
		d.grantedAt[b][core] = 0
	}
	for b := range d.cooldownUntil[core] {
		d.cooldownUntil[core][b] = 0
	}
	d.challenged[core] = make(map[int]bool)
	d.curve[core] = umon.Curve{}
	d.mlp[core] = 1
	d.pain[core] = 0 // nothing left to defend: the home bank is up for grabs
	d.pid[core] = core
	d.bankOrder[core] = []int{core}
	d.rebuildCBT(core)
	for _, b := range touched {
		d.rebuildCBT(b)
	}
}

// WorkloadMigrated implements chip.MembershipHandler: the partition follows
// the thread. Capacity relabels from the old partition id to the new one
// (home reserve excepted, and bounded by the destination's chip-wide cap;
// any excess reclaims to home partitions as in a departure), the locality
// order re-anchors on the new home bank, the per-thread monitoring state
// moves, and the thread's CBT moves with it so buckets whose bank assignment
// survives the rebuild keep serving the relabeled lines without a refetch.
func (d *Delta) WorkloadMigrated(from, to int, now uint64) {
	// Capacity follows the thread, nearest banks first (bankOrder is the
	// acquisition order, home first), until the destination's cap is full.
	room := d.maxTotal - d.totalWays(to)
	for _, b := range d.bankOrder[from] {
		if room <= 0 {
			break
		}
		keep := 0
		if b == from {
			keep = d.p.MinWays
		}
		w := d.alloc[from][b] - keep
		if w <= 0 {
			continue
		}
		if w > room {
			w = room
		}
		room -= d.relabelWays(b, from, to, w)
	}
	// Whatever the cap stranded reclaims to home partitions, as in a
	// departure (again cap-bounded; the rest drains via intra-bank moves).
	var touched []int
	for b := 0; b < d.n; b++ {
		if b == from {
			continue
		}
		w := d.alloc[from][b]
		if w == 0 {
			continue
		}
		if room := d.maxTotal - d.totalWays(b); w > room {
			w = room
		}
		if d.relabelWays(b, from, b, w) > 0 {
			touched = append(touched, b)
		}
	}
	// Locality order: new home first, then the banks the thread still owns
	// capacity in, in its old acquisition order.
	order := []int{to}
	for _, b := range d.bankOrder[from] {
		if b != to && d.alloc[to][b] > 0 {
			order = append(order, b)
		}
	}
	for b := 0; b < d.n; b++ {
		if b == to || d.alloc[to][b] == 0 {
			continue
		}
		listed := false
		for _, ob := range order {
			if ob == b {
				listed = true
				break
			}
		}
		if !listed {
			order = append(order, b)
		}
	}
	d.bankOrder[to] = order
	d.bankOrder[from] = []int{from}

	// Per-thread monitoring and protocol state moves; the vacated partition
	// resets to the departed shape (pain zero: its reserve is invadable).
	d.curve[to], d.curve[from] = d.curve[from], umon.Curve{}
	d.mlp[to], d.mlp[from] = d.mlp[from], 1
	d.pain[to], d.pain[from] = d.pain[from], 0
	d.pid[to], d.pid[from] = d.pid[from], from
	d.challenged[to] = make(map[int]bool)
	d.challenged[from] = make(map[int]bool)
	for b := 0; b < d.n; b++ {
		if d.bankGain[b][from] != 0 || d.bankGain[b][to] != 0 {
			d.gainDirty[b] = true
		}
		d.bankGain[b][to], d.bankGain[b][from] = d.bankGain[b][from], 0
		d.grantedAt[b][to], d.grantedAt[b][from] = d.grantedAt[b][from], 0
	}
	copy(d.cooldownUntil[to], d.cooldownUntil[from])
	for b := range d.cooldownUntil[from] {
		d.cooldownUntil[from][b] = 0
	}

	// The CBT travels: rebuilding incrementally from the thread's old table
	// preserves bucket→bank assignments wherever the shares allow, so the
	// relabeled lines in surviving buckets keep hitting.
	d.MoveTable(from, to)
	d.rebuildCBT(to)
	d.rebuildCBT(from)
	for _, b := range touched {
		d.rebuildCBT(b)
	}
}
