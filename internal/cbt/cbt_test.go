package cbt

import (
	"testing"
	"testing/quick"

	"delta/internal/sim"
)

func TestExtractBucketReversal(t *testing.T) {
	// With setBits=9, bits [9,17) of the line address select the bucket.
	// Line address with bit 9 set -> raw 0b00000001 -> reversed 0b10000000.
	if got := ExtractBucket(1<<9, 9); got != 0x80 {
		t.Fatalf("bucket = %#x, want 0x80", got)
	}
	// Set-index bits must not influence the bucket.
	if ExtractBucket(0x1ff, 9) != ExtractBucket(0, 9) {
		t.Fatal("set bits leaked into bucket")
	}
}

func TestExtractBucketSpreadsSequential(t *testing.T) {
	// Sequential line addresses (stride = one set round, i.e. 512 lines)
	// should spread across distant buckets thanks to the reversal.
	b0 := ExtractBucket(0<<9, 9)
	b1 := ExtractBucket(1<<9, 9)
	if d := b1 - b0; d != 128 && d != -128 {
		t.Fatalf("adjacent regions map %d apart, want 128", d)
	}
}

func TestBuildSingleBank(t *testing.T) {
	tb := Uniform(5)
	for b := 0; b < NumBuckets; b++ {
		if tb.Bank(b) != 5 {
			t.Fatalf("bucket %d -> %d", b, tb.Bank(b))
		}
	}
	if tb.Entries() != 1 {
		t.Fatalf("entries = %d", tb.Entries())
	}
}

func TestBuildProportional(t *testing.T) {
	// 16 ways home + 4 ways remote: 4/5 vs 1/5 of buckets, i.e. ~205 vs ~51.
	tb := Build([]Share{{Bank: 4, Ways: 16}, {Bank: 0, Ways: 4}})
	home, remote := tb.BucketCount(4), tb.BucketCount(0)
	if home+remote != NumBuckets {
		t.Fatalf("buckets do not cover space: %d + %d", home, remote)
	}
	if home < 200 || home > 210 {
		t.Fatalf("home buckets = %d, want ~205", home)
	}
	// Home bank first: its range starts at 0 (paper's Figure 3 layout).
	if r := tb.Ranges()[0]; r.Bank != 4 || r.Start != 0 {
		t.Fatalf("first range %+v", r)
	}
}

func TestBuildEveryShareGetsABucket(t *testing.T) {
	shares := []Share{{Bank: 0, Ways: 1000}, {Bank: 1, Ways: 1}}
	tb := Build(shares)
	if tb.BucketCount(1) == 0 {
		t.Fatal("tiny share received no buckets")
	}
}

func TestBuildPanics(t *testing.T) {
	for _, shares := range [][]Share{
		{},
		{{Bank: 0, Ways: 0}},
		{{Bank: 0, Ways: -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", shares)
				}
			}()
			Build(shares)
		}()
	}
}

func TestDiffExpansion(t *testing.T) {
	before := Build([]Share{{Bank: 4, Ways: 16}})
	after := Build([]Share{{Bank: 4, Ways: 16}, {Bank: 5, Ways: 4}})
	moves := Diff(before, after)
	if len(moves) == 0 {
		t.Fatal("expansion moved no buckets")
	}
	for _, m := range moves {
		if m.From != 4 || m.To != 5 {
			t.Fatalf("unexpected move %+v", m)
		}
	}
	// Expansion by 4/20 of capacity should move ~51 buckets.
	if len(moves) < 45 || len(moves) > 60 {
		t.Fatalf("moved %d buckets, want ~51", len(moves))
	}
}

func TestDiffRetreat(t *testing.T) {
	before := Build([]Share{{Bank: 4, Ways: 14}, {Bank: 5, Ways: 2}})
	after := Build([]Share{{Bank: 4, Ways: 14}})
	moves := Diff(before, after)
	for _, m := range moves {
		if m.From != 5 || m.To != 4 {
			t.Fatalf("retreat move %+v", m)
		}
	}
	if len(moves) == 0 {
		t.Fatal("retreat moved nothing")
	}
}

func TestDiffIdentity(t *testing.T) {
	a := Build([]Share{{Bank: 1, Ways: 8}, {Bank: 2, Ways: 8}})
	b := Build([]Share{{Bank: 1, Ways: 8}, {Bank: 2, Ways: 8}})
	if moves := Diff(a, b); len(moves) != 0 {
		t.Fatalf("identical tables diff to %d moves", len(moves))
	}
}

func TestStableOrderMinimizesChurn(t *testing.T) {
	// Growing a remote share slightly must not reshuffle unrelated banks'
	// buckets wholesale: moves should be bounded by the share growth.
	before := Build([]Share{{Bank: 0, Ways: 16}, {Bank: 1, Ways: 4}, {Bank: 2, Ways: 4}})
	after := Build([]Share{{Bank: 0, Ways: 16}, {Bank: 1, Ways: 8}, {Bank: 2, Ways: 4}})
	moves := Diff(before, after)
	// Share of bank 1 grows from 4/24 to 8/28: ~30 buckets change hands in
	// the ideal case; contiguous range layout shifts bank 2's window too,
	// but total churn should stay well under half the space.
	if len(moves) > NumBuckets/2 {
		t.Fatalf("churn too high: %d buckets moved", len(moves))
	}
}

func TestBanksList(t *testing.T) {
	tb := Build([]Share{{Bank: 3, Ways: 8}, {Bank: 7, Ways: 4}, {Bank: 1, Ways: 4}})
	banks := tb.Banks()
	if len(banks) != 3 || banks[0] != 3 || banks[1] != 7 || banks[2] != 1 {
		t.Fatalf("banks = %v", banks)
	}
	if tb.Entries() != 3 {
		t.Fatalf("entries = %d", tb.Entries())
	}
}

// Property: any positive share vector covers the bucket space exactly, with
// counts proportional to ways within rounding error.
func TestBuildCoverageProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var shares []Share
		total := 0
		for i, w := range raw {
			if len(shares) == 16 {
				break
			}
			ways := int(w%16) + 1
			shares = append(shares, Share{Bank: i, Ways: ways})
			total += ways
		}
		if shares == nil {
			return true
		}
		tb := Build(shares)
		covered := 0
		for _, s := range shares {
			n := tb.BucketCount(s.Bank)
			covered += n
			exact := float64(s.Ways) * NumBuckets / float64(total)
			if float64(n) < exact-float64(len(shares)) || float64(n) > exact+float64(len(shares)) {
				return false
			}
		}
		return covered == NumBuckets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Diff is antisymmetric — every move in Diff(a,b) appears reversed
// in Diff(b,a).
func TestDiffAntisymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRng(seed)
		mk := func() *Table {
			n := r.Intn(4) + 1
			shares := make([]Share, n)
			for i := range shares {
				shares[i] = Share{Bank: i, Ways: r.Intn(16) + 1}
			}
			return Build(shares)
		}
		a, b := mk(), mk()
		fwd, rev := Diff(a, b), Diff(b, a)
		if len(fwd) != len(rev) {
			return false
		}
		revByBucket := map[int]Move{}
		for _, m := range rev {
			revByBucket[m.Bucket] = m
		}
		for _, m := range fwd {
			rm, ok := revByBucket[m.Bucket]
			if !ok || rm.From != m.To || rm.To != m.From {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
