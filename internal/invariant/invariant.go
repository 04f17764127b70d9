// Package invariant is the runtime checking harness for DELTA's enforcement
// path. The paper states several conservation properties the simulator relies
// on but (before this package) never verified while running: per-bank way
// allocations always sum to the bank's associativity, the CBT maps every
// bucket to exactly one owning bank, per-partition occupancy accounting
// matches a recount of valid lines, the in-cache directory stays consistent
// with inclusive private copies, and event counters obey conservation laws
// (Hits + Misses == Accesses; NoC/MCU counters are monotone).
//
// The package provides the leaf-level checks over the leaf packages (cache,
// cbt); the chip model composes them into a full-simulator sweep at quantum
// boundaries and after every reconfiguration/remap (chip.Config.Check, the
// -check flag on delta-sim and delta-bench). Policies contribute their own
// internal consistency via chip.SelfChecker.
//
// Every check returns a descriptive error instead of panicking so the same
// functions back both the fail-fast runtime harness and the test suite's
// deliberate-corruption tests.
package invariant

import (
	"fmt"

	"delta/internal/cache"
	"delta/internal/cbt"
)

// CheckWayMasks validates the per-bank way-partitioning masks of one bank:
// the union of all partitions' insertion masks must cover every way (no dead
// capacity nobody may insert into), and when exclusive is set — true for
// partitioned policies like DELTA and the ideal centralized scheme — the
// masks must additionally be pairwise disjoint (each way has exactly one
// owner, the paper's WP-unit invariant). Shared policies (S-NUCA) pass
// exclusive=false since every core intentionally holds the full mask.
func CheckWayMasks(label string, ways int, masks []uint64, exclusive bool) error {
	full := uint64(1)<<uint(ways) - 1
	if ways >= 64 {
		full = ^uint64(0)
	}
	var union, overlap uint64
	for core, m := range masks {
		if m&^full != 0 {
			return fmt.Errorf("%s: core %d mask %#x selects ways beyond associativity %d",
				label, core, m, ways)
		}
		if exclusive && union&m != 0 {
			overlap |= union & m
		}
		union |= m
	}
	if exclusive && overlap != 0 {
		return fmt.Errorf("%s: way masks overlap on ways %#x (each way must have exactly one owner)",
			label, overlap)
	}
	if union != full {
		return fmt.Errorf("%s: way masks cover %#x of %#x (ways with no insertable owner)",
			label, union, full)
	}
	return nil
}

// CheckOccupancy recounts valid lines per owner in an owner-tracking cache
// and compares against the incrementally maintained occupancy table. This is
// the paper's per-partition capacity accounting: pain/gain inputs and the
// bank reports are derived from it, so silent drift here corrupts the policy
// loop without any visible crash.
func CheckOccupancy(label string, c *cache.Cache) error {
	if !c.TracksOwners() {
		return nil
	}
	recount := make([]uint64, c.Partitions())
	valid := 0
	var err error
	c.ForEachLine(func(_ int, ln cache.Line) {
		valid++
		if ln.Owner == cache.NoOwner {
			return
		}
		if int(ln.Owner) < 0 || int(ln.Owner) >= len(recount) {
			if err == nil {
				err = fmt.Errorf("%s: line %#x has out-of-range owner %d",
					label, ln.Addr, ln.Owner)
			}
			return
		}
		recount[ln.Owner]++
	})
	if err != nil {
		return err
	}
	for p := range recount {
		if got := c.Occupancy(p); got != recount[p] {
			return fmt.Errorf("%s: occupancy[%d] = %d but recount of valid lines owned by %d = %d",
				label, p, got, p, recount[p])
		}
	}
	if valid != c.ValidLines() {
		return fmt.Errorf("%s: ForEachLine visited %d lines, ValidLines reports %d",
			label, valid, c.ValidLines())
	}
	return nil
}

// CheckCacheStats validates the counter conservation law of one cache:
// every access is either a hit or a miss, nothing else.
func CheckCacheStats(label string, s cache.Stats) error {
	if s.Hits+s.Misses != s.Accesses {
		return fmt.Errorf("%s: hits %d + misses %d != accesses %d",
			label, s.Hits, s.Misses, s.Accesses)
	}
	return nil
}

// CheckTable validates a CBT's structural invariants: the range list is
// sorted, non-overlapping and covers [0, NumBuckets) exactly, every bucket's
// dense mapping agrees with the range holding it, every referenced bank is a
// real bank in [0, banks), and per-bank bucket counts sum to NumBuckets —
// i.e. every bucket has exactly one owning bank (Section II-C1).
func CheckTable(label string, t *cbt.Table, banks int) error {
	pos := 0
	total := 0
	for i, r := range t.Ranges() {
		if r.Start != pos {
			return fmt.Errorf("%s: range %d starts at %d, expected %d (gap or overlap)",
				label, i, r.Start, pos)
		}
		if r.End <= r.Start {
			return fmt.Errorf("%s: range %d is empty or inverted [%d,%d)",
				label, i, r.Start, r.End)
		}
		if r.Bank < 0 || r.Bank >= banks {
			return fmt.Errorf("%s: range %d maps to bank %d outside [0,%d)",
				label, i, r.Bank, banks)
		}
		for b := r.Start; b < r.End; b++ {
			if got := t.Bank(b); got != r.Bank {
				return fmt.Errorf("%s: bucket %d dense-maps to bank %d but lies in range of bank %d",
					label, b, got, r.Bank)
			}
		}
		pos = r.End
		total += r.End - r.Start
	}
	if pos != cbt.NumBuckets || total != cbt.NumBuckets {
		return fmt.Errorf("%s: ranges cover %d of %d buckets", label, total, cbt.NumBuckets)
	}
	return nil
}

// Monotone tracks named counters across checks and reports any that went
// backwards: NoC message/hop counts, MCU request/queue-delay totals and
// per-bank access counters are cumulative by contract, so a decrease means
// state corruption (or an unintended reset).
type Monotone struct {
	prev map[string]uint64
}

// NewMonotone returns an empty tracker.
func NewMonotone() *Monotone {
	return &Monotone{prev: make(map[string]uint64)}
}

// Check records the counter's current value and errors if it decreased since
// the previous observation.
func (m *Monotone) Check(name string, v uint64) error {
	if last, ok := m.prev[name]; ok && v < last {
		m.prev[name] = v
		return fmt.Errorf("monotone counter %s went backwards: %d -> %d", name, last, v)
	}
	m.prev[name] = v
	return nil
}
