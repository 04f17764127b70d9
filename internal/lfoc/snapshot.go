package lfoc

import (
	"fmt"

	"delta/internal/snapshot"
)

// state is the policy's snapshot payload, stored under the "lfoc" key. Way
// masks are derived from the cluster layout on restore; the static all-bank
// CBT is rebuilt by Attach and never changes, so neither is captured.
type state struct {
	TickNext    uint64     `json:"tick_next"`
	ClusterOf   []int      `json:"cluster_of"`
	ClusterWays []int      `json:"cluster_ways"`
	Class       []int      `json:"class"`
	BenefitBits []uint64   `json:"benefit_bits"`
	HasSmooth   bool       `json:"has_smooth"`
	SmoothBits  [][]uint64 `json:"smooth_bits,omitempty"` // nil rows allowed
	Stats       Stats      `json:"stats"`
}

// SnapshotPolicy implements chip.PolicySnapshotter.
func (p *Policy) SnapshotPolicy() (*snapshot.Policy, error) {
	return snapshot.NewPolicyState(p.Name(), "lfoc", state{
		TickNext:    p.tick.Next(),
		ClusterOf:   p.clusterOf,
		ClusterWays: p.clusterWays,
		Class:       p.class,
		BenefitBits: snapshot.FloatBits(p.benefit),
		HasSmooth:   p.smooth != nil,
		SmoothBits:  snapshot.MatrixBits(p.smooth),
		Stats:       p.Stats,
	})
}

// RestorePolicy implements chip.PolicySnapshotter, overwriting the state
// Attach initialized; the policy self-check revalidates the layout.
func (p *Policy) RestorePolicy(s *snapshot.Policy) error {
	var st state
	if err := s.DecodeState("lfoc", &st); err != nil {
		return fmt.Errorf("lfoc: %w", err)
	}
	if len(st.ClusterOf) != p.n || len(st.Class) != p.n || len(st.BenefitBits) != p.n {
		return fmt.Errorf("lfoc: snapshot policy state does not cover %d tiles", p.n)
	}
	if len(st.ClusterWays) == 0 {
		return fmt.Errorf("lfoc: snapshot has no clusters")
	}
	for i, k := range st.ClusterOf {
		if k < 0 || k >= len(st.ClusterWays) {
			return fmt.Errorf("lfoc: snapshot core %d in unknown cluster %d", i, k)
		}
	}
	p.tick.Reset(st.TickNext)
	p.clusterOf = st.ClusterOf
	p.clusterWays = st.ClusterWays
	copy(p.class, st.Class)
	snapshot.BitsInto(p.benefit, st.BenefitBits)
	p.smooth = nil
	if st.HasSmooth {
		p.smooth = snapshot.BitsMatrix[[]float64](st.SmoothBits, p.n)
	}
	p.Stats = st.Stats
	p.rebuildMasks()
	return nil
}
