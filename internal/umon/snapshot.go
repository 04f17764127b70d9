package umon

import (
	"fmt"
	"math"

	"delta/internal/snapshot"
)

// Snapshot captures the shadow-tag LRU stacks and the scaled hit/miss
// counters. Floats are stored as IEEE-754 bits for exact round-tripping.
func (m *Monitor) Snapshot() snapshot.Umon {
	var s snapshot.Umon
	m.SnapshotInto(&s)
	return s
}

// SnapshotInto is Snapshot writing into dst, reusing its slices when they
// are large enough; the result equals a fresh Snapshot's. Freshly captured
// stacks are sized by their length, and empty ones stay non-nil so they
// encode as [] rather than null.
func (m *Monitor) SnapshotInto(dst *snapshot.Umon) {
	stacks := dst.Stacks
	if stacks == nil || len(stacks) != len(m.stacks) {
		stacks = make([][]uint64, len(m.stacks))
	}
	for i, st := range m.stacks {
		if stacks[i] == nil {
			stacks[i] = make([]uint64, 0, len(st))
		}
		stacks[i] = append(stacks[i][:0], st...)
	}
	*dst = snapshot.Umon{
		Stacks:           stacks,
		HitsBits:         floatsToBits(dst.HitsBits, m.hits),
		MissesBits:       math.Float64bits(m.misses),
		AccessesBits:     math.Float64bits(m.accesses),
		LastHitsBits:     floatsToBits(dst.LastHitsBits, m.lastHits),
		LastMissesBits:   math.Float64bits(m.lastMisses),
		LastAccessesBits: math.Float64bits(m.lastAccesses),
	}
}

// Restore overwrites the monitor's mutable state from a snapshot taken on a
// monitor with the same configuration.
func (m *Monitor) Restore(s snapshot.Umon) error {
	if len(s.Stacks) != len(m.stacks) {
		return fmt.Errorf("umon: snapshot has %d sampled sets, monitor has %d", len(s.Stacks), len(m.stacks))
	}
	if len(s.HitsBits) != m.buckets || len(s.LastHitsBits) != m.buckets {
		return fmt.Errorf("umon: snapshot has %d hit buckets, monitor has %d", len(s.HitsBits), m.buckets)
	}
	deepest := 0
	for i, st := range s.Stacks {
		if len(st) > m.cfg.MaxWays {
			return fmt.Errorf("umon: snapshot stack %d deeper than MaxWays %d", i, m.cfg.MaxWays)
		}
		deepest = max(deepest, len(st))
	}
	if deepest > m.depth {
		depth := m.depth
		for depth < deepest {
			depth = min(2*depth, m.cfg.MaxWays)
		}
		m.grow(depth)
	}
	for i, st := range s.Stacks {
		m.stacks[i] = append(m.stacks[i][:0], st...)
	}
	bitsToFloats(m.hits, s.HitsBits)
	bitsToFloats(m.lastHits, s.LastHitsBits)
	m.misses = math.Float64frombits(s.MissesBits)
	m.accesses = math.Float64frombits(s.AccessesBits)
	m.lastMisses = math.Float64frombits(s.LastMissesBits)
	m.lastAccesses = math.Float64frombits(s.LastAccessesBits)
	return nil
}

// floatsToBits stores fs as bits in dst (reused when large enough) and
// returns it; the result is never nil.
func floatsToBits(dst []uint64, fs []float64) []uint64 {
	if dst == nil || cap(dst) < len(fs) {
		dst = make([]uint64, len(fs))
	}
	out := dst[:len(fs)]
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

func bitsToFloats(dst []float64, bits []uint64) {
	for i, b := range bits {
		dst[i] = math.Float64frombits(b)
	}
}
