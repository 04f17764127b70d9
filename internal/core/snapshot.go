package core

import (
	"fmt"
	"math"
	"sort"

	"delta/internal/sim"
	"delta/internal/snapshot"
	"delta/internal/umon"
)

// Control-message kinds for DELTA's distributed protocol. Field conventions
// (on sim.Msg): see each constant.
const (
	// MsgGain updates bank B's gain register for core A (FBits = gain).
	MsgGain = "delta.gain"
	// MsgChallenge delivers core A's challenge to bank B (FBits = gain,
	// distance-penalized at send time).
	MsgChallenge = "delta.challenge"
	// MsgResponse answers challenger A from defender bank B: Flag = success,
	// C = ways ceded.
	MsgResponse = "delta.response"
	// MsgRetreat tells core A it lost its last way in the sending bank.
	MsgRetreat = "delta.retreat"
)

// HandleControl implements chip.ControlHandler: the receive side of the
// closures the protocol used to schedule directly, now reified so in-flight
// messages survive checkpoint/restore.
func (d *Delta) HandleControl(m sim.Msg, now uint64) {
	switch m.Kind {
	case MsgGain:
		// Drop updates from partitions whose workload departed or migrated
		// after sending: a stale gain would let an empty partition hold or
		// attract capacity (dynamic scenarios only — static senders always
		// have workloads).
		if d.c.HasWorkload(m.A) {
			d.bankGain[m.B][m.A] = math.Float64frombits(m.FBits)
			d.gainDirty[m.B] = true
		}
	case MsgChallenge:
		d.handleChallenge(m.B, m.A, math.Float64frombits(m.FBits), now)
	case MsgResponse:
		d.handleResponse(m.A, m.B, m.Flag, m.C)
	case MsgRetreat:
		d.handleRetreat(m.A)
	default:
		panic(fmt.Sprintf("core: unknown control message kind %q", m.Kind))
	}
}

// state is Delta's snapshot payload, stored under the "delta" key. alloc
// is derived from WayOwner on restore.
type state struct {
	WayOwner      [][]int16      `json:"way_owner"`
	BankOrder     [][]int        `json:"bank_order"`
	Tables        []snapshot.CBT `json:"tables"`
	Curves        []curveState   `json:"curves"`
	MlpBits       []uint64       `json:"mlp_bits"`
	PainBits      []uint64       `json:"pain_bits"`
	BankGainBits  [][]uint64     `json:"bank_gain_bits"`
	Challenged    [][]int        `json:"challenged"` // sorted member lists
	Pid           []int          `json:"pid"`
	InterNext     []uint64       `json:"inter_next"` // ticker re-arm cycles
	IntraNext     []uint64       `json:"intra_next"`
	GrantedAt     [][]uint64     `json:"granted_at"`
	CooldownUntil [][]uint64     `json:"cooldown_until"`
	GainDirty     []bool         `json:"gain_dirty"`
	MaxTotal      int            `json:"max_total"`
	Stats         Stats          `json:"stats"`
}

// curveState is a umon.Curve with floats as IEEE-754 bits. Present
// distinguishes the pre-first-epoch nil curve from an empty one.
type curveState struct {
	Present      bool     `json:"present"`
	CumHitsBits  []uint64 `json:"cum_hits_bits,omitempty"`
	Granularity  int      `json:"granularity,omitempty"`
	MaxWays      int      `json:"max_ways,omitempty"`
	AccessesBits uint64   `json:"accesses_bits,omitempty"`
}

// SnapshotPolicy implements chip.PolicySnapshotter.
func (d *Delta) SnapshotPolicy() (*snapshot.Policy, error) {
	p := state{
		WayOwner:      d.Owners(),
		BankOrder:     d.bankOrder,
		Tables:        d.SnapshotTables(),
		Curves:        make([]curveState, d.n),
		MlpBits:       snapshot.FloatBits(d.mlp),
		PainBits:      snapshot.FloatBits(d.pain),
		BankGainBits:  snapshot.MatrixBits(d.bankGain),
		Challenged:    make([][]int, d.n),
		Pid:           d.pid,
		InterNext:     make([]uint64, d.n),
		IntraNext:     make([]uint64, d.n),
		GrantedAt:     d.grantedAt,
		CooldownUntil: d.cooldownUntil,
		GainDirty:     d.gainDirty,
		MaxTotal:      d.maxTotal,
		Stats:         d.Stats,
	}
	for i := 0; i < d.n; i++ {
		p.Curves[i] = snapCurve(d.curve[i])
		members := make([]int, 0, len(d.challenged[i]))
		for t := range d.challenged[i] {
			members = append(members, t)
		}
		sort.Ints(members)
		p.Challenged[i] = members
		p.InterNext[i] = d.interTick[i].Next()
		p.IntraNext[i] = d.intraTick[i].Next()
	}
	return snapshot.NewPolicyState(d.Name(), "delta", p)
}

// RestorePolicy implements chip.PolicySnapshotter: it overwrites the state
// Attach initialized. alloc is recomputed from the restored way owners; the
// policy self-check (CheckInvariants) revalidates the pair afterwards.
func (d *Delta) RestorePolicy(s *snapshot.Policy) error {
	var p state
	if err := s.DecodeState("delta", &p); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if len(p.WayOwner) != d.n || len(p.BankOrder) != d.n || len(p.Tables) != d.n ||
		len(p.Curves) != d.n || len(p.MlpBits) != d.n || len(p.PainBits) != d.n ||
		len(p.BankGainBits) != d.n || len(p.Challenged) != d.n || len(p.Pid) != d.n ||
		len(p.InterNext) != d.n || len(p.IntraNext) != d.n || len(p.GrantedAt) != d.n ||
		len(p.CooldownUntil) != d.n || len(p.GainDirty) != d.n {
		return fmt.Errorf("core: snapshot policy state does not cover %d tiles", d.n)
	}
	for b := range p.WayOwner {
		if len(p.WayOwner[b]) != d.w {
			return fmt.Errorf("core: snapshot bank %d has %d ways, want %d", b, len(p.WayOwner[b]), d.w)
		}
		for _, owner := range p.WayOwner[b] {
			if int(owner) < 0 || int(owner) >= d.n {
				return fmt.Errorf("core: snapshot way owner %d out of range", owner)
			}
		}
	}
	if err := d.RestoreTables(p.Tables); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for b := range p.WayOwner {
		for way, owner := range p.WayOwner[b] {
			d.SetOwner(b, way, int(owner))
		}
	}
	for i := 0; i < d.n; i++ {
		for b := 0; b < d.n; b++ {
			d.alloc[i][b] = d.Ways(i, b)
		}
		d.bankOrder[i] = append(d.bankOrder[i][:0], p.BankOrder[i]...)
		d.curve[i] = unsnapCurve(p.Curves[i])
		d.mlp[i] = math.Float64frombits(p.MlpBits[i])
		d.pain[i] = math.Float64frombits(p.PainBits[i])
		snapshot.BitsInto(d.bankGain[i], p.BankGainBits[i])
		d.challenged[i] = make(map[int]bool, len(p.Challenged[i]))
		for _, t := range p.Challenged[i] {
			d.challenged[i][t] = true
		}
		d.pid[i] = p.Pid[i]
		d.interTick[i].Reset(p.InterNext[i])
		d.intraTick[i].Reset(p.IntraNext[i])
		copy(d.grantedAt[i], p.GrantedAt[i])
		copy(d.cooldownUntil[i], p.CooldownUntil[i])
		d.gainDirty[i] = p.GainDirty[i]
	}
	d.maxTotal = p.MaxTotal
	d.Stats = p.Stats
	return nil
}

func snapCurve(c umon.Curve) curveState {
	if c.CumHits == nil {
		return curveState{}
	}
	return curveState{
		Present:      true,
		CumHitsBits:  snapshot.FloatBits(c.CumHits),
		Granularity:  c.Granularity,
		MaxWays:      c.MaxWays,
		AccessesBits: math.Float64bits(c.Accesses),
	}
}

func unsnapCurve(s curveState) umon.Curve {
	if !s.Present {
		return umon.Curve{}
	}
	c := umon.Curve{
		CumHits:     make([]float64, len(s.CumHitsBits)), // non-nil: present
		Granularity: s.Granularity,
		MaxWays:     s.MaxWays,
		Accesses:    math.Float64frombits(s.AccessesBits),
	}
	snapshot.BitsInto(c.CumHits, s.CumHitsBits)
	return c
}
