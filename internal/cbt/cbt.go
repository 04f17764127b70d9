// Package cbt implements DELTA's Cache Bank Table (Section II-C1): the
// per-core, fully-associative range table that maps portions of the physical
// address space to LLC banks, enabling allocations that span multiple banks
// while keeping data close to the core that uses it.
//
// Bank selection uses the 8 physical-address bits immediately above the
// LLC-bank set index (Figure 2). The bits are reversed before indexing so the
// high-entropy low-order bits become most significant, which spreads an
// application's footprint uniformly across its buckets. The 256 resulting
// buckets are apportioned to banks proportionally to the number of ways the
// core owns in each bank, as contiguous ranges (a range-based table after
// Gandhi et al.).
package cbt

import (
	"fmt"
	"math/bits"
	"sort"
)

// BucketBits is the number of address bits used for bank selection.
const BucketBits = 8

// NumBuckets is the size of the bucket space.
const NumBuckets = 1 << BucketBits

// ExtractBucket returns the bank-selection bucket for a line address. setBits
// is log2 of the number of sets in one LLC bank (9 for the paper's 512-set
// banks): the bucket bits sit directly above the set index, and are
// bit-reversed (Section II-C1).
func ExtractBucket(lineAddr uint64, setBits int) int {
	raw := uint8(lineAddr >> uint(setBits))
	return int(bits.Reverse8(raw))
}

// Share is one bank's portion of a core's allocation, in ways.
type Share struct {
	Bank int
	Ways int
}

// Range maps buckets [Start, End) to Bank. Ranges in a table are sorted,
// non-overlapping and cover [0, NumBuckets).
type Range struct {
	Start, End int
	Bank       int
}

// Table is one core's CBT. The hardware is a small fully-associative range
// table; the simulator additionally keeps a dense bucket->bank array for
// fast per-access lookup. Tables are immutable once built.
type Table struct {
	ranges []Range
	dense  [NumBuckets]int16
}

// Build apportions the bucket space to the given shares, in the order given
// (callers put the home bank first, then banks in acquisition order, so that
// expansion and retreat move as few buckets as possible). Shares with zero
// ways receive no buckets. Apportionment uses the largest-remainder method so
// bucket counts are proportional to ways and sum exactly to NumBuckets.
// Build panics if total ways is zero, any share is negative, or a bank
// appears in more than one share: BuildIncremental keys its quota bookkeeping
// by bank, so duplicate banks would silently mis-apportion there while Build
// kept them as separate ranges — the fuzz harness flushed this divergence
// out, and rejecting duplicates loudly in both builders locks the contract.
func Build(shares []Share) *Table {
	total := 0
	seen := make(map[int]bool, len(shares))
	for _, s := range shares {
		if s.Ways < 0 {
			panic(fmt.Sprintf("cbt: negative ways in share %+v", s))
		}
		if seen[s.Bank] {
			panic(fmt.Sprintf("cbt: bank %d appears in more than one share", s.Bank))
		}
		seen[s.Bank] = true
		total += s.Ways
	}
	if total == 0 {
		panic("cbt: cannot build a table with zero total ways")
	}
	type quota struct {
		idx   int
		base  int
		remFr float64
	}
	quotas := make([]quota, 0, len(shares))
	assigned := 0
	for i, s := range shares {
		if s.Ways == 0 {
			continue
		}
		exact := float64(s.Ways) * NumBuckets / float64(total)
		base := int(exact)
		quotas = append(quotas, quota{idx: i, base: base, remFr: exact - float64(base)})
		assigned += base
	}
	// Hand the leftover buckets to the largest remainders (ties: earlier
	// share wins, keeping the home bank favoured deterministically).
	leftover := NumBuckets - assigned
	order := make([]int, len(quotas))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return quotas[order[a]].remFr > quotas[order[b]].remFr })
	for i := 0; i < leftover; i++ {
		quotas[order[i%len(order)]].base++
	}
	// Every share with ways > 0 must get at least one bucket, or its data
	// would silently map elsewhere; steal from the largest if needed.
	for i := range quotas {
		if quotas[i].base == 0 {
			big := 0
			for j := range quotas {
				if quotas[j].base > quotas[big].base {
					big = j
				}
			}
			if quotas[big].base <= 1 {
				panic("cbt: more shares than buckets")
			}
			quotas[big].base--
			quotas[i].base++
		}
	}
	t := &Table{}
	pos := 0
	for _, q := range quotas {
		r := Range{Start: pos, End: pos + q.base, Bank: shares[q.idx].Bank}
		t.ranges = append(t.ranges, r)
		for b := r.Start; b < r.End; b++ {
			t.dense[b] = int16(r.Bank)
		}
		pos += q.base
	}
	if pos != NumBuckets {
		panic("cbt: apportionment did not cover the bucket space")
	}
	return t
}

// Uniform builds a table mapping every bucket to a single bank (the initial
// private/home mapping).
func Uniform(bank int) *Table {
	return Build([]Share{{Bank: bank, Ways: 1}})
}

// Bank returns the LLC bank a bucket maps to.
func (t *Table) Bank(bucket int) int { return int(t.dense[bucket&(NumBuckets-1)]) }

// BankForLine combines bucket extraction and lookup.
func (t *Table) BankForLine(lineAddr uint64, setBits int) int {
	return t.Bank(ExtractBucket(lineAddr, setBits))
}

// Ranges returns the hardware range entries; callers must not mutate.
func (t *Table) Ranges() []Range { return t.ranges }

// Entries returns the number of occupied range-table entries, i.e. the number
// of banks this core's allocation spans (the paper's associative-lookup cost
// argument).
func (t *Table) Entries() int { return len(t.ranges) }

// Banks returns the distinct banks the table maps to, in range order.
func (t *Table) Banks() []int {
	out := make([]int, 0, len(t.ranges))
	seen := map[int]bool{}
	for _, r := range t.ranges {
		if !seen[r.Bank] {
			seen[r.Bank] = true
			out = append(out, r.Bank)
		}
	}
	return out
}

// BucketCount returns how many buckets map to the given bank.
func (t *Table) BucketCount(bank int) int {
	n := 0
	for _, r := range t.ranges {
		if r.Bank == bank {
			n += r.End - r.Start
		}
	}
	return n
}

// Move describes one bucket whose mapping changed between two tables; the
// lines of that bucket must be invalidated in the From bank.
type Move struct {
	Bucket   int
	From, To int
}

// Diff returns the buckets that map to a different bank in next than in prev,
// in bucket order. The enforcement layer turns these into bulk
// invalidations.
func Diff(prev, next *Table) []Move {
	var moves []Move
	for b := 0; b < NumBuckets; b++ {
		if prev.dense[b] != next.dense[b] {
			moves = append(moves, Move{Bucket: b, From: int(prev.dense[b]), To: int(next.dense[b])})
		}
	}
	return moves
}

// BucketSet marks a subset of the bucket space: the buckets one remap moves
// out of one bank, handed to that bank's bulk-invalidation unit.
type BucketSet [NumBuckets]bool
