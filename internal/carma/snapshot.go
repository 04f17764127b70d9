package carma

import (
	"fmt"
	"math"

	"delta/internal/snapshot"
)

// state is the policy's snapshot payload, stored under the "carma" key.
// Per-core allocations and way masks are derived from the lot-ownership
// matrix on restore; the tables are captured because their bucket ranges
// depend on auction history, not just current holdings.
type state struct {
	TickNext   uint64         `json:"tick_next"`
	LotOwner   [][]int16      `json:"lot_owner"`
	BudgetBits []uint64       `json:"budget_bits"`
	Tables     []snapshot.CBT `json:"tables"`
	Stats      statsState     `json:"stats"`
}

// statsState is Stats with the float stored as IEEE-754 bits.
type statsState struct {
	Auctions         uint64 `json:"auctions"`
	LotsTraded       uint64 `json:"lots_traded"`
	CreditsSpentBits uint64 `json:"credits_spent_bits"`
	InvalLines       uint64 `json:"inval_lines"`
}

// SnapshotPolicy implements chip.PolicySnapshotter.
func (p *Policy) SnapshotPolicy() (*snapshot.Policy, error) {
	s := state{
		TickNext:   p.tick.Next(),
		LotOwner:   p.lotOwner,
		BudgetBits: snapshot.FloatBits(p.budget),
		Tables:     p.SnapshotTables(),
		Stats: statsState{
			Auctions:         p.Stats.Auctions,
			LotsTraded:       p.Stats.LotsTraded,
			CreditsSpentBits: math.Float64bits(p.Stats.CreditsSpent),
			InvalLines:       p.Stats.InvalLines,
		},
	}
	return snapshot.NewPolicyState(p.Name(), "carma", s)
}

// RestorePolicy implements chip.PolicySnapshotter, overwriting the state
// Attach initialized; the policy self-check revalidates the market.
// Every check runs before any state is installed.
func (p *Policy) RestorePolicy(s *snapshot.Policy) error {
	var st state
	if err := s.DecodeState("carma", &st); err != nil {
		return fmt.Errorf("carma: %w", err)
	}
	if len(st.LotOwner) != p.n || len(st.BudgetBits) != p.n || len(st.Tables) != p.n {
		return fmt.Errorf("carma: snapshot policy state does not cover %d tiles", p.n)
	}
	for b := range st.LotOwner {
		if len(st.LotOwner[b]) != p.lots {
			return fmt.Errorf("carma: snapshot bank %d has %d lots, want %d", b, len(st.LotOwner[b]), p.lots)
		}
		for l, o := range st.LotOwner[b] {
			if o < 0 || int(o) >= p.n {
				return fmt.Errorf("carma: snapshot bank %d lot %d owned by invalid core %d", b, l, o)
			}
		}
	}
	if err := p.RestoreTables(st.Tables); err != nil {
		return fmt.Errorf("carma: %w", err)
	}
	p.tick.Reset(st.TickNext)
	for b, lots := range st.LotOwner {
		for l, o := range lots {
			p.setLot(b, l, int(o))
		}
	}
	snapshot.BitsInto(p.budget, st.BudgetBits)
	p.Stats = Stats{
		Auctions:     st.Stats.Auctions,
		LotsTraded:   st.Stats.LotsTraded,
		CreditsSpent: math.Float64frombits(st.Stats.CreditsSpentBits),
		InvalLines:   st.Stats.InvalLines,
	}
	return nil
}
