package chip

import (
	"fmt"
	"math"

	"delta/internal/invariant"
	"delta/internal/sim"
	"delta/internal/snapshot"
	"delta/internal/trace"
)

// PolicySnapshotter is implemented by policies with mutable state that must
// survive checkpoint/restore. Stateless policies (S-NUCA, private) need not
// implement it: their snapshot carries only the Kind tag.
type PolicySnapshotter interface {
	SnapshotPolicy() (*snapshot.Policy, error)
	RestorePolicy(*snapshot.Policy) error
}

// Snapshot captures the chip's complete state at a quantum boundary: every
// tile's core, caches, UMON, generator cursor and measurement latches; the
// in-flight control messages; policy state; NoC/memory counters; the page
// classifier; the telemetry sampling cursor; and the quantum clock.
//
// Not captured (and documented as such): recorder contents (observability
// sinks own their data) and the invariant harness's monotone baselines
// (restores re-baseline on the first check). It fails with a
// snapshot.ErrNotSnapshotable-wrapped error if any tile runs a generator
// that does not implement trace.Snapshotter.
func (c *Chip) Snapshot() (*snapshot.Chip, error) {
	s := &snapshot.Chip{}
	if err := c.SnapshotInto(s); err != nil {
		return nil, err
	}
	return s, nil
}

// SnapshotInto is Snapshot writing into s, reusing the bulk buffers (cache
// arrays and UMON stacks) of the capture s already holds; the result equals
// a fresh Snapshot's. It is failure-atomic: the fallible captures (policy
// state and generator cursors) run before any field of s is written, so on
// error s still holds exactly the capture it held before.
func (c *Chip) SnapshotInto(s *snapshot.Chip) error {
	c.mustLive()
	pol := snapshot.Policy{Kind: c.policy.Name()}
	if ps, ok := c.policy.(PolicySnapshotter); ok {
		p, err := ps.SnapshotPolicy()
		if err != nil {
			return err
		}
		pol = *p
	}
	gens := make([]*snapshot.Gen, len(c.Tiles))
	for i, t := range c.Tiles {
		if t.gen == nil {
			continue
		}
		g, err := trace.SnapshotGen(t.gen)
		if err != nil {
			return fmt.Errorf("chip: tile %d: %w", i, err)
		}
		gens[i] = g
	}

	tiles := s.Tiles
	if tiles == nil || len(tiles) != len(c.Tiles) {
		tiles = make([]snapshot.Tile, len(c.Tiles))
	}
	*s = snapshot.Chip{
		Now:    c.now,
		Tiles:  tiles,
		Events: c.events.Pending(),
		Policy: pol,
		NoC:    c.Net.Snapshot(),
		Mem:    c.Mem.Snapshot(),
		Stats: snapshot.ChipStats{
			InvalLines:     c.Stats.InvalLines,
			InvalWalks:     c.Stats.InvalWalks,
			MaskFallbacks:  c.Stats.MaskFallbacks,
			SharedInserts:  c.Stats.SharedInserts,
			PageReclassify: c.Stats.PageReclassify,
		},
	}
	for i, t := range c.Tiles {
		prev := &tiles[i]
		st := snapshot.Tile{
			Core:            t.Core.Snapshot(),
			L1:              prev.L1,
			L2:              prev.L2,
			LLC:             prev.LLC,
			Mon:             prev.Mon,
			Base:            t.base,
			LLCAccesses:     t.LLCAccesses,
			LLCRemoteHits:   t.LLCRemoteHits,
			LLCLocalHits:    t.LLCLocalHits,
			MemFetches:      t.MemFetches,
			Warmed:          t.warmed,
			StartCycle:      t.startCycle,
			StartInstr:      t.startInstr,
			StartLLCAcc:     t.startLLCAcc,
			StartMemF:       t.startMemF,
			DoneCycle:       t.doneCycle,
			DoneInstr:       t.doneInstr,
			DoneLLCAcc:      t.doneLLCAcc,
			DoneMemF:        t.doneMemF,
			LastLLCAccesses: t.lastLLCAccesses,
			IdleStreak:      t.idleStreak,
			LocalHitsBase:   t.localHitsBase,
			RemoteHitsBase:  t.remoteHitsBase,
			WarmBase:        t.warmBase,
			SampInstr:       t.sampInstr,
			SampCycle:       t.sampCycle,
			SampLLCAcc:      t.sampLLCAcc,
			SampBankAcc:     t.sampBankAcc,
			SampBankHits:    t.sampBankHits,
			Gen:             gens[i],
		}
		t.L1.SnapshotInto(&st.L1)
		t.L2.SnapshotInto(&st.L2)
		t.LLC.SnapshotInto(&st.LLC)
		t.Mon.SnapshotInto(&st.Mon)
		if t.ratePct != 100 {
			st.RatePct = t.ratePct
		}
		if t.throttlePct != 100 {
			st.ThrottlePct = t.throttlePct
		}
		*prev = st
	}
	if c.classifier != nil {
		cls := c.classifier.Snapshot()
		s.Classifier = &cls
	}
	for _, d := range c.departed {
		s.Departed = append(s.Departed, snapshot.DepartedResult{
			Core:         d.Core,
			Instructions: d.Instructions,
			Cycles:       d.Cycles,
			IPCBits:      math.Float64bits(d.IPC),
			MPKIBits:     math.Float64bits(d.MPKI),
			MemMPKIBits:  math.Float64bits(d.MemMPKI),
			LocalHitBits: math.Float64bits(d.LocalHitFrac),
			MLPBits:      math.Float64bits(d.MLP),
		})
	}
	if c.rec != nil {
		s.Sampler = &snapshot.Sampler{
			Quanta: c.sampleQuanta,
			Cycle:  c.sampleCycle,
			NoC:    snapshot.NoCStats{Messages: c.sampleNoC.Messages, Hops: c.sampleNoC.Hops},
			Mem:    snapshot.MemStats{Requests: c.sampleMem.Requests, QueueDelay: c.sampleMem.QueueDelay},
		}
	}
	return nil
}

// Restore overwrites the chip's state from a snapshot taken on a chip with
// the same configuration, policy kind, and workload assignment. The caller
// must have rebuilt the chip (New + Attach + SetWorkload with the original
// specs) before restoring: construction-time wiring (evict callbacks, way
// masks' geometry, generator tree shape) is re-derived, then every cursor
// and counter is overwritten. In-flight control messages are rebound to the
// policy's ControlHandler with their exact (cycle, sequence) ordering.
func (c *Chip) Restore(s *snapshot.Chip) error {
	c.mustLive()
	if len(s.Tiles) != len(c.Tiles) {
		return fmt.Errorf("chip: snapshot has %d tiles, chip has %d", len(s.Tiles), len(c.Tiles))
	}
	if s.Policy.Kind != c.policy.Name() {
		return fmt.Errorf("chip: snapshot policy %q, chip runs %q", s.Policy.Kind, c.policy.Name())
	}
	for i, st := range s.Tiles {
		t := c.Tiles[i]
		if (st.Gen != nil) != (t.gen != nil) {
			return fmt.Errorf("chip: tile %d workload presence does not match snapshot", i)
		}
	}
	for _, pe := range s.Events {
		if pe.Msg.Kind != sim.MsgNoop {
			if _, ok := c.policy.(ControlHandler); !ok {
				return fmt.Errorf("chip: snapshot carries %q message but policy %s handles no control messages",
					pe.Msg.Kind, c.policy.Name())
			}
		}
	}
	if ps, ok := c.policy.(PolicySnapshotter); ok {
		if err := ps.RestorePolicy(&s.Policy); err != nil {
			return err
		}
	} else if s.Policy.State != nil {
		return fmt.Errorf("chip: snapshot carries %q state for stateless policy %s", s.Policy.Key, c.policy.Name())
	}
	for i, st := range s.Tiles {
		t := c.Tiles[i]
		t.Core.Restore(st.Core)
		if err := t.L1.Restore(st.L1); err != nil {
			return fmt.Errorf("chip: tile %d L1: %w", i, err)
		}
		if err := t.L2.Restore(st.L2); err != nil {
			return fmt.Errorf("chip: tile %d L2: %w", i, err)
		}
		if err := t.LLC.Restore(st.LLC); err != nil {
			return fmt.Errorf("chip: tile %d LLC: %w", i, err)
		}
		if err := t.Mon.Restore(st.Mon); err != nil {
			return fmt.Errorf("chip: tile %d: %w", i, err)
		}
		if st.Gen != nil {
			if err := trace.RestoreGen(t.gen, *st.Gen); err != nil {
				return fmt.Errorf("chip: tile %d: %w", i, err)
			}
		}
		t.base = st.Base
		t.LLCAccesses = st.LLCAccesses
		t.LLCRemoteHits = st.LLCRemoteHits
		t.LLCLocalHits = st.LLCLocalHits
		t.MemFetches = st.MemFetches
		t.warmed = st.Warmed
		t.startCycle = st.StartCycle
		t.startInstr = st.StartInstr
		t.startLLCAcc = st.StartLLCAcc
		t.startMemF = st.StartMemF
		t.doneCycle = st.DoneCycle
		t.doneInstr = st.DoneInstr
		t.doneLLCAcc = st.DoneLLCAcc
		t.doneMemF = st.DoneMemF
		t.lastLLCAccesses = st.LastLLCAccesses
		t.idleStreak = st.IdleStreak
		t.localHitsBase = st.LocalHitsBase
		t.remoteHitsBase = st.RemoteHitsBase
		t.warmBase = st.WarmBase
		t.ratePct = st.RatePct
		if t.ratePct == 0 {
			t.ratePct = 100
		}
		t.throttlePct = st.ThrottlePct
		if t.throttlePct == 0 {
			t.throttlePct = 100
		}
		t.sampInstr = st.SampInstr
		t.sampCycle = st.SampCycle
		t.sampLLCAcc = st.SampLLCAcc
		t.sampBankAcc = st.SampBankAcc
		t.sampBankHits = st.SampBankHits
	}
	if err := c.Net.Restore(s.NoC); err != nil {
		return err
	}
	if err := c.Mem.Restore(s.Mem); err != nil {
		return err
	}
	if (s.Classifier != nil) != (c.classifier != nil) {
		return fmt.Errorf("chip: snapshot multithreaded mode does not match chip config")
	}
	if s.Classifier != nil {
		c.classifier.Restore(*s.Classifier)
	}
	if s.Sampler != nil && c.rec != nil {
		c.sampleQuanta = s.Sampler.Quanta
		c.sampleCycle = s.Sampler.Cycle
		c.sampleNoC.Messages = s.Sampler.NoC.Messages
		c.sampleNoC.Hops = s.Sampler.NoC.Hops
		c.sampleMem.Requests = s.Sampler.Mem.Requests
		c.sampleMem.QueueDelay = s.Sampler.Mem.QueueDelay
	}
	c.now = s.Now
	c.Stats = Stats{
		InvalLines:     s.Stats.InvalLines,
		InvalWalks:     s.Stats.InvalWalks,
		MaskFallbacks:  s.Stats.MaskFallbacks,
		SharedInserts:  s.Stats.SharedInserts,
		PageReclassify: s.Stats.PageReclassify,
	}
	c.departed = nil
	for _, d := range s.Departed {
		c.departed = append(c.departed, CoreResult{
			Core:         d.Core,
			Instructions: d.Instructions,
			Cycles:       d.Cycles,
			IPC:          math.Float64frombits(d.IPCBits),
			MPKI:         math.Float64frombits(d.MPKIBits),
			MemMPKI:      math.Float64frombits(d.MemMPKIBits),
			LocalHitFrac: math.Float64frombits(d.LocalHitBits),
			MLP:          math.Float64frombits(d.MLPBits),
		})
	}
	c.events.Restore(s.Events)
	// Counter baselines restart from the restored values; the first check
	// re-baselines instead of comparing against the pre-restore run.
	if c.checkOn {
		c.mono = invariant.NewMonotone()
	}
	c.ckptQuanta = 0
	c.CheckInvariants("restore")
	return nil
}
