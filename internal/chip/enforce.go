package chip

import (
	"fmt"
	"math/bits"

	"delta/internal/cbt"
	"delta/internal/invariant"
	"delta/internal/snapshot"
)

// NoOwner marks a way no partition may insert into.
const NoOwner = -1

// Enforcement is DELTA's two-level enforcement mechanism (Section II-C):
// per-core Cache Bank Tables route every private line to a bank, and each
// bank's way-partitioning (WP) unit restricts which ways a partition may
// insert into. Policies that enforce through it (DELTA, the ideal
// centralized scheme, CARMA) embed it and only decide the allocation; it
// supplies BankFor, WayMask, Table and ExclusiveWayPartitioning.
//
// Way ownership and table changes are separate steps, as in hardware:
// moving a way between partitions invalidates nothing (the old owner's
// lines stay until the new owner's insertions evict them), while Remap
// bulk-invalidates the lines of every bucket that changed banks.
type Enforcement struct {
	c       *Chip
	setBits int
	// owners[bank][way] is the partition with insertion rights to the way,
	// or NoOwner.
	owners [][]int16
	// masks[bank][core] is the insertion mask derived from owners.
	masks  [][]uint64
	tables []*cbt.Table
}

// InitEnforcement wires the mechanism to c in the private layout: every
// bank's ways belong to its home core and every core's table maps all
// buckets home. Call it from the policy's Attach.
func (e *Enforcement) InitEnforcement(c *Chip) {
	n, w := c.Cores(), c.Ways()
	e.c, e.setBits = c, c.LLCSetBits()
	e.owners = make([][]int16, n)
	e.masks = make([][]uint64, n)
	e.tables = make([]*cbt.Table, n)
	all := ^uint64(0) >> uint(64-w)
	for b := 0; b < n; b++ {
		e.owners[b] = make([]int16, w)
		for way := range e.owners[b] {
			e.owners[b][way] = int16(b)
		}
		e.masks[b] = make([]uint64, n)
		e.masks[b][b] = all
		e.tables[b] = cbt.Uniform(b)
	}
}

// BankFor implements Policy through the core's CBT.
func (e *Enforcement) BankFor(core int, lineAddr uint64) int {
	return e.tables[core].BankForLine(lineAddr, e.setBits)
}

// WayMask implements Policy from the bank's WP unit.
func (e *Enforcement) WayMask(core, bank int) uint64 { return e.masks[bank][core] }

// Table implements TableProvider.
func (e *Enforcement) Table(core int) *cbt.Table { return e.tables[core] }

// ExclusiveWayPartitioning implements ExclusivePartitioner: a WP unit gives
// every way at most one owner.
func (e *Enforcement) ExclusiveWayPartitioning() bool { return true }

// Owners returns the [bank][way] ownership matrix; callers must not mutate
// it.
func (e *Enforcement) Owners() [][]int16 { return e.owners }

// Ways returns how many ways core owns in bank.
func (e *Enforcement) Ways(core, bank int) int { return bits.OnesCount64(e.masks[bank][core]) }

// SetOwner hands way of bank to core (or NoOwner).
func (e *Enforcement) SetOwner(bank, way, core int) {
	bit := uint64(1) << uint(way)
	if old := e.owners[bank][way]; old != NoOwner {
		e.masks[bank][old] &^= bit
	}
	e.owners[bank][way] = int16(core)
	if core != NoOwner {
		e.masks[bank][core] |= bit
	}
}

// MoveWays hands up to max of from's ways in bank to to, lowest-indexed
// first, and returns how many moved.
func (e *Enforcement) MoveWays(bank, from, to, max int) int {
	if from == to {
		return 0
	}
	moved := 0
	for m := e.masks[bank][from]; m != 0 && moved < max; m &= m - 1 {
		e.SetOwner(bank, bits.TrailingZeros64(m), to)
		moved++
	}
	return moved
}

// Remap installs next as core's table and bulk-invalidates, in every bank
// that loses buckets, core's lines in those buckets (Section II-C3); they
// refetch into their new bank on next use. Each source bank is walked once,
// in ascending bank order. It returns the number of LLC lines invalidated.
func (e *Enforcement) Remap(core int, next *cbt.Table) int {
	prev := e.tables[core]
	e.tables[core] = next
	lines := 0
	for from := range e.owners {
		var moved cbt.BucketSet
		found := false
		for _, r := range prev.Ranges() {
			if r.Bank != from {
				continue
			}
			for b := r.Start; b < r.End; b++ {
				if next.Bank(b) != from {
					moved[b], found = true, true
				}
			}
		}
		if found {
			lines += e.c.invalidateOwnerBuckets(core, from, &moved)
		}
	}
	return lines
}

// MoveTable moves a migrating thread's table from one core to another; the
// vacated core maps everything home. Nothing is invalidated: the chip has
// already relabeled the thread's lines to the destination partition.
func (e *Enforcement) MoveTable(from, to int) {
	e.tables[to], e.tables[from] = e.tables[from], cbt.Uniform(from)
}

// SnapshotTables captures every core's table.
func (e *Enforcement) SnapshotTables() []snapshot.CBT {
	out := make([]snapshot.CBT, len(e.tables))
	for i, t := range e.tables {
		out[i] = t.Snapshot()
	}
	return out
}

// RestoreTables installs snapshot tables, one per core. Every table is
// validated — contiguous cover of the bucket space, banks on the chip —
// before any is installed, so an error names the first bad tile and leaves
// the current tables untouched.
func (e *Enforcement) RestoreTables(s []snapshot.CBT) error {
	if len(s) != len(e.tables) {
		return fmt.Errorf("snapshot holds %d tables, want %d", len(s), len(e.tables))
	}
	next := make([]*cbt.Table, len(s))
	for i := range s {
		t, err := cbt.FromSnapshot(s[i])
		if err != nil {
			return fmt.Errorf("tile %d: %w", i, err)
		}
		if err := invariant.CheckTable(fmt.Sprintf("tile %d", i), t, len(e.tables)); err != nil {
			return err
		}
		next[i] = t
	}
	copy(e.tables, next)
	return nil
}
