package central

import (
	"fmt"
	"math"

	"delta/internal/snapshot"
)

// idealState is Ideal's snapshot payload, stored under the "ideal" key
// (the policy's Name is "ideal-central"). Way ownership is derived from
// Assign on restore.
type idealState struct {
	TickNext       uint64         `json:"tick_next"`
	Alloc          []int          `json:"alloc"`
	Assign         [][]int        `json:"assign"`
	Tables         []snapshot.CBT `json:"tables"`
	HasSmooth      bool           `json:"has_smooth"`
	SmoothBits     [][]uint64     `json:"smooth_bits,omitempty"` // nil rows allowed
	HistorySumBits []uint64       `json:"history_sum_bits"`
	HistoryCount   []uint64       `json:"history_count"`
	Stats          IdealStats     `json:"stats"`
}

// SnapshotPolicy implements chip.PolicySnapshotter.
func (p *Ideal) SnapshotPolicy() (*snapshot.Policy, error) {
	s := idealState{
		TickNext:       p.tick.Next(),
		Alloc:          p.alloc,
		Assign:         p.assign,
		Tables:         p.SnapshotTables(),
		HasSmooth:      p.smooth != nil,
		SmoothBits:     snapshot.MatrixBits(p.smooth),
		HistorySumBits: make([]uint64, p.n),
		HistoryCount:   make([]uint64, p.n),
		Stats:          p.Stats,
	}
	for i := 0; i < p.n; i++ {
		s.HistorySumBits[i] = math.Float64bits(p.history[i].sum)
		s.HistoryCount[i] = p.history[i].count
	}
	return snapshot.NewPolicyState(p.Name(), "ideal", s)
}

// RestorePolicy implements chip.PolicySnapshotter, overwriting the state
// Attach initialized; the policy self-check revalidates assign↔masks.
// Every check runs before any state is installed.
func (p *Ideal) RestorePolicy(s *snapshot.Policy) error {
	var st idealState
	if err := s.DecodeState("ideal", &st); err != nil {
		return fmt.Errorf("central: %w", err)
	}
	if len(st.Alloc) != p.n || len(st.Assign) != p.n || len(st.Tables) != p.n ||
		len(st.HistorySumBits) != p.n || len(st.HistoryCount) != p.n {
		return fmt.Errorf("central: snapshot policy state does not cover %d tiles", p.n)
	}
	for i, row := range st.Assign {
		if len(row) != p.n {
			return fmt.Errorf("central: snapshot assign row %d has %d entries, want %d", i, len(row), p.n)
		}
	}
	if err := p.RestoreTables(st.Tables); err != nil {
		return fmt.Errorf("central: %w", err)
	}
	p.tick.Reset(st.TickNext)
	copy(p.alloc, st.Alloc)
	for i := 0; i < p.n; i++ {
		copy(p.assign[i], st.Assign[i])
		p.history[i] = allocStat{sum: math.Float64frombits(st.HistorySumBits[i]), count: st.HistoryCount[i]}
	}
	p.smooth = nil
	if st.HasSmooth {
		p.smooth = snapshot.BitsMatrix[MissCurve](st.SmoothBits, p.n)
	}
	p.Stats = st.Stats
	p.setOwners()
	return nil
}
