package bankbw

import (
	"fmt"

	"delta/internal/chip"
	"delta/internal/snapshot"
)

// state is the regulator's snapshot payload, stored under the "bankbw"
// key. Base is the wrapped policy's own snapshot, recursively: a stateless
// base carries only its Kind, exactly as it would unwrapped.
type state struct {
	Base         snapshot.Policy `json:"base"`
	WindowQuanta int             `json:"window_quanta"`
	Quanta       int             `json:"quanta"` // quanta elapsed in the open window
	Acc          [][]uint64      `json:"acc"`
	Throttle     []int           `json:"throttle"`
	Stats        Stats           `json:"stats"`
}

// SnapshotPolicy implements chip.PolicySnapshotter. The per-tile throttle
// the chip enforces is captured with the tiles; the copy here is the
// regulator's own bookkeeping.
func (p *Policy) SnapshotPolicy() (*snapshot.Policy, error) {
	base := &snapshot.Policy{Kind: p.base.Name()}
	if ps, ok := p.base.(chip.PolicySnapshotter); ok {
		var err error
		base, err = ps.SnapshotPolicy()
		if err != nil {
			return nil, err
		}
	}
	return snapshot.NewPolicyState(p.Name(), "bankbw", state{
		Base:         *base,
		WindowQuanta: p.cfg.WindowQuanta,
		Quanta:       p.quanta,
		Acc:          p.acc,
		Throttle:     p.throttle,
		Stats:        p.Stats,
	})
}

// RestorePolicy implements chip.PolicySnapshotter. The chip restores each
// tile's enforced throttle itself, after this runs.
func (p *Policy) RestorePolicy(s *snapshot.Policy) error {
	var st state
	if err := s.DecodeState("bankbw", &st); err != nil {
		return fmt.Errorf("bankbw: %w", err)
	}
	if st.Base.Kind != p.base.Name() {
		return fmt.Errorf("bankbw: snapshot wraps %q, regulator wraps %q", st.Base.Kind, p.base.Name())
	}
	if ps, ok := p.base.(chip.PolicySnapshotter); ok {
		if err := ps.RestorePolicy(&st.Base); err != nil {
			return err
		}
	} else if st.Base.State != nil {
		return fmt.Errorf("bankbw: snapshot carries state for stateless base %q", st.Base.Kind)
	}
	if st.WindowQuanta != p.cfg.WindowQuanta {
		return fmt.Errorf("bankbw: snapshot window is %d quanta, regulator uses %d", st.WindowQuanta, p.cfg.WindowQuanta)
	}
	if len(st.Acc) != p.n || len(st.Throttle) != p.n {
		return fmt.Errorf("bankbw: snapshot policy state does not cover %d tiles", p.n)
	}
	if st.Quanta < 0 || st.Quanta >= p.cfg.WindowQuanta {
		return fmt.Errorf("bankbw: snapshot window position %d out of [0,%d)", st.Quanta, p.cfg.WindowQuanta)
	}
	for b := range st.Acc {
		if len(st.Acc[b]) != p.n {
			return fmt.Errorf("bankbw: snapshot bank %d counts %d cores, want %d", b, len(st.Acc[b]), p.n)
		}
	}
	p.quanta = st.Quanta
	for b := 0; b < p.n; b++ {
		copy(p.acc[b], st.Acc[b])
	}
	copy(p.throttle, st.Throttle)
	p.Stats = st.Stats
	return nil
}
