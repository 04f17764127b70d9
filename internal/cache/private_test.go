package cache

import (
	"fmt"
	"reflect"
	"testing"

	"delta/internal/sim"
)

// privatePair is an inclusive private L1/L2 pair wired as the chip wires
// every tile: an L2 eviction or invalidation back-invalidates the L1.
type privatePair struct{ l1, l2 *Cache }

func newPrivatePair(l1Sets, l1Ways, l2Sets, l2Ways int) privatePair {
	p := privatePair{
		l1: New(Config{SizeBytes: l1Sets * l1Ways * LineBytes, Ways: l1Ways}),
		l2: New(Config{SizeBytes: l2Sets * l2Ways * LineBytes, Ways: l2Ways}),
	}
	p.l2.OnEvict = func(ln Line) { p.l1.InvalidateLine(ln.Addr) }
	return p
}

// step serves one reference through the fused AccessPrivate, refilling L2
// then L1 on a miss in both as the chip's LLC half does.
func (p privatePair) step(line uint64, write bool) Level {
	lvl := AccessPrivate(p.l1, p.l2, line, write)
	if lvl == MissL2 {
		p.l2.Fill(line, write)
		p.l1.Fill(line, write)
	}
	return lvl
}

// stepTriple serves the same reference through the three-call sequence the
// fused step replaces: Lookup in L1, Lookup in L2, then Fill.
func (p privatePair) stepTriple(line uint64, write bool) Level {
	if _, hit := p.l1.Lookup(line, write); hit {
		return HitL1
	}
	if _, hit := p.l2.Lookup(line, write); hit {
		p.l1.Fill(line, write)
		return HitL2
	}
	p.l2.Fill(line, write)
	p.l1.Fill(line, write)
	return MissL2
}

// privateOp is one operation of a differential stream: a reference, or an
// invalidation of a line from the L1 or (with back-invalidation) the L2.
type privateOp struct {
	line  uint64
	write bool
	inval int // 0: reference; 1: invalidate in L1; 2: invalidate in L2
}

// diffPrivate drives a fused pair and a three-call pair through ops and
// fails at the first operation after which their snapshots (addresses,
// flags, stamps, clocks and statistics) or served levels differ.
func diffPrivate(t *testing.T, l1Sets, l1Ways, l2Sets, l2Ways int, ops []privateOp) {
	t.Helper()
	fused := newPrivatePair(l1Sets, l1Ways, l2Sets, l2Ways)
	triple := newPrivatePair(l1Sets, l1Ways, l2Sets, l2Ways)
	for i, op := range ops {
		what := fmt.Sprintf("op %d (line %d write %v inval %d)", i, op.line, op.write, op.inval)
		switch op.inval {
		case 1:
			fused.l1.InvalidateLine(op.line)
			triple.l1.InvalidateLine(op.line)
		case 2:
			fused.l2.InvalidateLine(op.line)
			triple.l2.InvalidateLine(op.line)
		default:
			if got, want := fused.step(op.line, op.write), triple.stepTriple(op.line, op.write); got != want {
				t.Fatalf("%s: fused step served level %d, the three calls %d", what, got, want)
			}
		}
		if got, want := fused.l1.Snapshot(), triple.l1.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: L1 diverged\nfused:  %+v\ntriple: %+v", what, got, want)
		}
		if got, want := fused.l2.Snapshot(), triple.l2.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: L2 diverged\nfused:  %+v\ntriple: %+v", what, got, want)
		}
	}
}

// TestAccessPrivateMatchesTripleCall holds the fused private step to the
// Lookup→Lookup→Fill sequence it replaced, state for state, over random
// streams with writes and interleaved invalidations, at every way count
// from direct-mapped to 16-way on both levels.
func TestAccessPrivateMatchesTripleCall(t *testing.T) {
	for _, l1Ways := range []int{1, 2, 4, 8, 16} {
		for _, l2Ways := range []int{1, 2, 4, 8, 16} {
			t.Run(fmt.Sprintf("l1w%d-l2w%d", l1Ways, l2Ways), func(t *testing.T) {
				const l1Sets, l2Sets = 4, 8
				rng := sim.NewRng(uint64(l1Ways*31 + l2Ways))
				// Four times the L2's lines: hits at both levels, misses,
				// and evictions of dirty and clean lines all occur.
				span := uint64(4 * l2Sets * l2Ways)
				ops := make([]privateOp, 3000)
				for i := range ops {
					ops[i] = privateOp{line: rng.Uint64n(span), write: rng.Uint64n(4) == 0}
					if r := rng.Uint64n(16); r < 2 {
						ops[i].inval = int(r) + 1
					}
				}
				diffPrivate(t, l1Sets, l1Ways, l2Sets, l2Ways, ops)
			})
		}
	}
}

// FuzzPrivateStep runs the differential check on fuzzer-chosen geometry and
// streams: the first two bytes pick each level's way count (1, 2, 4, 8 or
// 16) and each later byte one operation on a small line range.
func FuzzPrivateStep(f *testing.F) {
	f.Add([]byte{3, 3, 0, 1, 2, 3, 0x41, 0x80, 0xc5, 0, 9})
	f.Add([]byte{0, 4, 7, 7, 7, 0x87, 0x47, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{4, 0, 0x10, 0x20, 0x30, 0x90, 0x50, 0x11, 0x21, 0x31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := [...]int{1, 2, 4, 8, 16}
		l1Ways, l2Ways := ways[int(data[0])%len(ways)], ways[int(data[1])%len(ways)]
		ops := make([]privateOp, 0, len(data)-2)
		for _, b := range data[2:] {
			// Bits 0-4 pick one of 32 lines (as many as a 2-set, 16-way
			// L2 holds), bit 5 a write, and bits 6-7 an invalidation in
			// the L1 (2) or the L2 (3).
			op := privateOp{line: uint64(b & 31), write: b&32 != 0}
			switch b >> 6 {
			case 2:
				op.inval = 1
			case 3:
				op.inval = 2
			}
			ops = append(ops, op)
		}
		diffPrivate(t, 2, l1Ways, 2, l2Ways, ops)
	})
}

// BenchmarkAccessPrivate times one reference through AccessPrivate (plus the
// L2-then-L1 refill on a miss in both) for sixteen tiles at Table II's
// shapes (32 KB 8-way L1, 128 KB 8-way L2) whose cores each walk a uniform
// 64-96 KB working set, the L2-resident applications of a Fig. 5 mix. Each
// tile takes 1000 references in a row before the next, as a core does
// within a quantum, so the host caches see the simulator's tile-to-tile
// working set rather than one pair's.
func BenchmarkAccessPrivate(b *testing.B) {
	const tiles, run = 16, 1000
	pairs := make([]privatePair, tiles)
	for i := range pairs {
		pairs[i] = newPrivatePair(64, 8, 256, 8)
	}
	x := uint64(88172645463325252)
	step := func(i int) {
		t := i / run % tiles
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		lines := uint64(1024 + 256*(t%3))
		pairs[t].step(uint64(t)<<40|(x>>32)*lines>>32, x&7 < 2)
	}
	for i := 0; i < tiles*run*20; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
