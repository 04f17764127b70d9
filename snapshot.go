package delta

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"delta/internal/snapshot"
	"delta/internal/workloads"
)

// SnapshotSchemaVersion is the snapshot wire-format version this build reads
// and writes. Decoding any other version fails with ErrSnapshotVersion.
const SnapshotSchemaVersion = snapshot.Version

// ErrSnapshotVersion is returned (wrapped) by DecodeSnapshot when the data
// was written under a different schema version.
var ErrSnapshotVersion = snapshot.ErrSnapshotVersion

// ErrNotSnapshotable is returned (wrapped) by Simulator.Snapshot when the
// simulator state cannot be captured: a custom Generator workload, or a
// generator type without cursor serialization (trace.StackDistGen).
var ErrNotSnapshotable = snapshot.ErrNotSnapshotable

// Snapshot is a deterministic, versioned capture of a Simulator at a quantum
// boundary. Restore rebuilds a simulator that continues bit-identically:
// run-to-completion equals run→Snapshot→Restore→run.
type Snapshot struct {
	env *snapshot.Envelope
}

// Encode serializes the snapshot. Encoding is deterministic: the same state
// always yields the same bytes.
func (sn *Snapshot) Encode() ([]byte, error) {
	return snapshot.Encode(sn.env)
}

// DecodeSnapshot parses bytes produced by Encode, rejecting other schema
// versions with an error wrapping ErrSnapshotVersion, and configurations
// carrying keys this build does not know.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	env, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	if env.Kind != snapshotKind {
		return nil, fmt.Errorf("delta: snapshot kind %q, want %q", env.Kind, snapshotKind)
	}
	if len(env.Config) == 0 {
		return nil, errors.New("delta: snapshot has no configuration")
	}
	if _, err := configFromCanonicalJSON(env.Config); err != nil {
		return nil, err
	}
	return &Snapshot{env: env}, nil
}

const snapshotKind = "delta.simulator"

// Snapshot captures the simulator's complete state. It is valid before the
// run, after Run/RunCtx returns (including cancellation, which stops at a
// quantum boundary), and from a checkpoint hook; it must not race a
// concurrently executing RunCtx. It fails, wrapping ErrNotSnapshotable, when
// a workload was loaded from a custom Generator — restore needs named specs
// to rebuild the generator tree.
func (s *Simulator) Snapshot() (*Snapshot, error) {
	s.live()
	return s.snapshotInto(nil)
}

// snapshotInto captures in place into dst (a fresh snapshot when dst is
// nil) and returns it. dst must not be visible to any other goroutine. On
// error dst is unchanged.
func (s *Simulator) snapshotInto(dst *Snapshot) (*Snapshot, error) {
	if s.hasCustom {
		return nil, fmt.Errorf("delta: custom Generator workloads: %w", ErrNotSnapshotable)
	}
	if s.loaded == 0 {
		return nil, errors.New("delta: no workloads assigned")
	}
	cfgJSON, err := s.cfg.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = &Snapshot{env: &snapshot.Envelope{Chip: &snapshot.Chip{}}}
	}
	if err := s.chip.SnapshotInto(dst.env.Chip); err != nil {
		return nil, err
	}
	w := &snapshot.Workloads{Mix: s.mixName}
	for _, a := range s.appByCore {
		w.Apps = append(w.Apps, a)
	}
	sort.Slice(w.Apps, func(i, j int) bool { return w.Apps[i].Core < w.Apps[j].Core })
	*dst.env = snapshot.Envelope{
		Kind:      snapshotKind,
		Config:    cfgJSON,
		Workloads: w,
		Chip:      dst.env.Chip,
	}
	return dst, nil
}

// LastSnapshot returns the most recent auto-checkpoint (SnapshotEvery > 0,
// or the stop-point checkpoint of a canceled run), or nil if none was taken.
// Safe to call from other goroutines.
func (s *Simulator) LastSnapshot() *Snapshot {
	s.live()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastEscaped = s.lastSnap != nil
	return s.lastSnap
}

// storeCheckpoint captures the current state into lastSnap; a failed
// capture (e.g. custom generators) leaves the previous checkpoint in place.
//
// The capture holds mu and, unless LastSnapshot has handed lastSnap out,
// rewrites lastSnap's buffers in place, so steady-state checkpointing keeps
// one buffer and allocates almost nothing. A checkpoint that escaped is never
// written again: the capture goes into a fresh snapshot, which becomes the
// new, unescaped lastSnap. Because the capture and the escape both happen
// under mu, no caller can observe a buffer being rewritten; a concurrent
// LastSnapshot waits for at most one capture. chip.SnapshotInto is
// failure-atomic, so a failed in-place capture leaves lastSnap as it was.
func (s *Simulator) storeCheckpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var dst *Snapshot
	if !s.lastEscaped {
		dst = s.lastSnap
	}
	if snap, err := s.snapshotInto(dst); err == nil {
		s.lastSnap, s.lastEscaped = snap, false
	}
}

// Fingerprint returns a deterministic digest string of the full simulator
// state (per-core results, per-bank reports, chip/NoC/memory counters) used
// by the equivalence tests and the checkpoint smoke lane.
func (s *Simulator) Fingerprint() string {
	s.live()
	return s.chip.Fingerprint()
}

// Restore rebuilds a simulator from a snapshot: the recorded configuration
// and workload specs reconstruct the chip, then every cursor, counter, cache
// line and in-flight control message is overwritten from the captured state.
// The restored simulator continues bit-identically to the original.
//
// opts apply on top of the recorded configuration and are meant for the
// observability knobs (WithRecorder, WithCheck, WithSnapshotEvery, ...);
// overriding result-affecting fields breaks the equivalence guarantee and
// usually fails geometry validation.
func Restore(sn *Snapshot, opts ...Option) (*Simulator, error) {
	if sn == nil || sn.env == nil || sn.env.Chip == nil {
		return nil, errors.New("delta: nil snapshot")
	}
	cfg, err := configFromCanonicalJSON(sn.env.Config)
	if err != nil {
		return nil, err
	}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := newSimulator(cfg)
	if err != nil {
		return nil, err
	}
	if sn.env.Workloads != nil {
		if sn.env.Workloads.Mix != "" {
			if err := s.LoadMixE(sn.env.Workloads.Mix); err != nil {
				return nil, err
			}
		}
		for _, a := range sn.env.Workloads.Apps {
			if err := s.SetWorkloadE(a.Core, Workload{App: a.App, SharedAddressSpace: a.Shared}); err != nil {
				return nil, err
			}
		}
	}
	if s.loaded == 0 {
		return nil, errors.New("delta: snapshot records no workloads")
	}
	// A mid-scenario snapshot was taken after membership events moved
	// workloads around, but the envelope records the t=0 assignment (so a
	// restored simulator's own snapshots stay replayable). Re-derive the
	// occupancy at the snapshot's clock and reshape the generator tree to
	// match before the chip restore overwrites every cursor: RestoreGen
	// needs each tile's generator to have the right structure, nothing more.
	if cfg.Scenario != nil && sn.env.Chip.Now > 0 {
		initial := make([]string, cfg.Cores)
		if s.mixName != "" {
			for i, a := range workloads.MixByName(s.mixName).Slots(cfg.Cores) {
				initial[i] = a.Name
			}
		}
		for c, a := range s.appByCore {
			initial[c] = a.App
		}
		occ, seedCore := cfg.Scenario.ProvenanceAt(initial, s.chip.Cfg.Quantum, sn.env.Chip.Now)
		for i, app := range occ {
			if app == initial[i] && seedCore[i] == i {
				continue
			}
			if app == "" {
				s.chip.SetWorkload(i, nil, true)
				continue
			}
			// A migrated workload keeps the generator its source core built:
			// seed-derived structure (region bases, stream layout) is not
			// cursor state, so rebuilding with the destination's seed would
			// diverge. seedCore names the core whose seed to use.
			gen, err := s.buildApp(seedCore[i], app)
			if err != nil {
				return nil, err
			}
			s.chip.SetWorkload(i, gen, true)
		}
	}
	if err := s.chip.Restore(sn.env.Chip); err != nil {
		return nil, err
	}
	return s, nil
}

// configFromCanonicalJSON inverts Config.CanonicalJSON. It rejects keys
// this build does not write (such as the removed DeltaParams and
// IdealConfig), which would otherwise be dropped and the snapshot resumed
// under a different configuration than the one that wrote it.
func configFromCanonicalJSON(data []byte) (Config, error) {
	var cc struct {
		Cores           int
		Policy          PolicyKind
		TimeCompression uint64
		Warmup          uint64
		Budget          uint64
		FastForward     bool
		Multithreaded   bool
		Seed            uint64
		Scenario        *Scenario
		PolicyParams    map[string]json.RawMessage
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cc); err != nil {
		return Config{}, fmt.Errorf("delta: snapshot config: %w", err)
	}
	return Config{
		Cores:              cc.Cores,
		Policy:             cc.Policy,
		TimeCompression:    cc.TimeCompression,
		WarmupInstructions: cc.Warmup,
		BudgetInstructions: cc.Budget,
		FastForward:        cc.FastForward,
		Multithreaded:      cc.Multithreaded,
		Seed:               cc.Seed,
		Scenario:           cc.Scenario,
		PolicyParams:       cc.PolicyParams,
	}, nil
}
