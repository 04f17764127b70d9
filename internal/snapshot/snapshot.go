// Package snapshot defines the versioned, deterministic serialization format
// for full simulator state: per-tile cache contents and way masks, CBTs,
// UMON shadow tags, policy state, core/trace-generator cursors, RNG streams,
// in-flight control messages, and the quantum clock.
//
// The package holds only *format* types plus Encode/Decode; every simulated
// component implements its own Snapshot/Restore against the mirror type
// defined here, so this package never imports the packages it describes
// (only internal/sim, for the reified control-message type). Policy state is
// the exception: each policy package owns its payload type and marshals it
// itself, and Policy frames the payload under the policy's key
// (NewPolicyState, DecodeState), so adding a policy never touches this
// package.
//
// Determinism: the wire form is what Go's encoding/json marshals (struct
// fields in declaration order, no maps), so encoding the same state twice
// yields byte-identical output. Encode and Decode implement that form by
// hand for speed; encoding/json remains the reference and Decode's fallback
// (codec.go). All floating-point state is stored as
// IEEE-754 bit patterns (uint64 fields with a Bits suffix) so ±Inf and exact
// values survive the round trip.
//
// Versioning policy: Version is bumped on any incompatible change to the
// types in this file; Decode rejects any other version with a *VersionError
// wrapping ErrSnapshotVersion. There is no cross-version migration — a
// snapshot is a resume token for the build that wrote it, not an archival
// format.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"delta/internal/sim"
)

// Version is the current snapshot schema version.
const Version = 1

// ErrSnapshotVersion is the sentinel wrapped by *VersionError when Decode
// meets an envelope written under a different schema version.
var ErrSnapshotVersion = errors.New("snapshot: schema version mismatch")

// ErrNotSnapshotable marks state that the format cannot capture: custom
// user-supplied trace generators and the validation-only StackDistGen.
var ErrNotSnapshotable = errors.New("snapshot: state is not snapshotable")

// VersionError reports a schema-version mismatch. It wraps
// ErrSnapshotVersion so callers can errors.Is against the sentinel.
type VersionError struct {
	Got, Want int
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: schema version %d, want %d", e.Got, e.Want)
}

// Unwrap lets errors.Is(err, ErrSnapshotVersion) succeed.
func (e *VersionError) Unwrap() error { return ErrSnapshotVersion }

// Envelope is the top-level snapshot document. Facade snapshots carry the
// canonical simulator config and the workload assignment needed to rebuild
// the generator tree before restoring cursor state; chip-level snapshots
// (tests, goldens) may leave those empty.
type Envelope struct {
	SchemaVersion int             `json:"schema_version"`
	Kind          string          `json:"kind"`
	Config        json.RawMessage `json:"config,omitempty"`
	Workloads     *Workloads      `json:"workloads,omitempty"`
	Chip          *Chip           `json:"chip"`
}

// Workloads records what was loaded onto the cores, by name, so a restore
// can rebuild the exact generator tree (same specs, same derived seeds) and
// then overwrite its cursors from the per-tile Gen states.
type Workloads struct {
	// Mix names a workload mix loaded via LoadMix; empty when apps were
	// assigned individually.
	Mix string `json:"mix,omitempty"`
	// Apps lists per-core assignments (unset cores are idle).
	Apps []AppAssignment `json:"apps,omitempty"`
}

// AppAssignment is one core's named workload.
type AppAssignment struct {
	Core   int    `json:"core"`
	App    string `json:"app"`
	Shared bool   `json:"shared,omitempty"`
}

// Chip is the full chip state at a quantum boundary.
type Chip struct {
	Now        uint64             `json:"now"`
	Tiles      []Tile             `json:"tiles"`
	Events     []sim.PendingEvent `json:"events,omitempty"`
	Policy     Policy             `json:"policy"`
	NoC        NoC                `json:"noc"`
	Mem        Mem                `json:"mem"`
	Classifier *Classifier        `json:"classifier,omitempty"`
	Sampler    *Sampler           `json:"sampler,omitempty"`
	Stats      ChipStats          `json:"stats"`
	// Departed holds results latched for workloads that left mid-run
	// (dynamic scenarios only); absent in static runs so their snapshot
	// bytes are unchanged.
	Departed []DepartedResult `json:"departed,omitempty"`
}

// DepartedResult is one detached workload's latched measurement window,
// floats as IEEE-754 bits.
type DepartedResult struct {
	Core         int    `json:"core"`
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	IPCBits      uint64 `json:"ipc_bits"`
	MPKIBits     uint64 `json:"mpki_bits"`
	MemMPKIBits  uint64 `json:"mem_mpki_bits"`
	LocalHitBits uint64 `json:"local_hit_bits"`
	MLPBits      uint64 `json:"mlp_bits"`
}

// ChipStats mirrors chip.Stats.
type ChipStats struct {
	InvalLines     uint64 `json:"inval_lines"`
	InvalWalks     uint64 `json:"inval_walks"`
	MaskFallbacks  uint64 `json:"mask_fallbacks"`
	SharedInserts  uint64 `json:"shared_inserts"`
	PageReclassify uint64 `json:"page_reclassify"`
}

// Tile is one tile's state: core pipeline, cache hierarchy, UMON, trace
// cursor, and the measurement-window latches.
type Tile struct {
	Core CPU    `json:"core"`
	L1   Cache  `json:"l1"`
	L2   Cache  `json:"l2"`
	LLC  Cache  `json:"llc"`
	Mon  Umon   `json:"mon"`
	Gen  *Gen   `json:"gen,omitempty"`
	Base uint64 `json:"base"`

	LLCAccesses   uint64 `json:"llc_accesses"`
	LLCRemoteHits uint64 `json:"llc_remote_hits"`
	LLCLocalHits  uint64 `json:"llc_local_hits"`
	MemFetches    uint64 `json:"mem_fetches"`

	Warmed      bool   `json:"warmed"`
	StartCycle  uint64 `json:"start_cycle"`
	StartInstr  uint64 `json:"start_instr"`
	StartLLCAcc uint64 `json:"start_llc_acc"`
	StartMemF   uint64 `json:"start_mem_f"`
	DoneCycle   uint64 `json:"done_cycle"`
	DoneInstr   uint64 `json:"done_instr"`
	DoneLLCAcc  uint64 `json:"done_llc_acc"`
	DoneMemF    uint64 `json:"done_mem_f"`

	LastLLCAccesses uint64 `json:"last_llc_accesses"`
	IdleStreak      int    `json:"idle_streak"`

	// Scenario state, zero (and omitted) on static runs so pre-scenario
	// snapshot bytes are unchanged. RatePct stores 0 for the default 100%.
	LocalHitsBase  uint64 `json:"local_hits_base,omitempty"`
	RemoteHitsBase uint64 `json:"remote_hits_base,omitempty"`
	WarmBase       uint64 `json:"warm_base,omitempty"`
	RatePct        int    `json:"rate_pct,omitempty"`
	// ThrottlePct is the policy-imposed bandwidth throttle (chip.SetThrottle);
	// 0 stores the default 100%, so runs that never throttle are byte-unchanged.
	ThrottlePct int `json:"throttle_pct,omitempty"`

	SampInstr    uint64 `json:"samp_instr"`
	SampCycle    uint64 `json:"samp_cycle"`
	SampLLCAcc   uint64 `json:"samp_llc_acc"`
	SampBankAcc  uint64 `json:"samp_bank_acc"`
	SampBankHits uint64 `json:"samp_bank_hits"`
}

// CPU mirrors cpu.Core.
type CPU struct {
	Cycle      uint64   `json:"cycle"`
	DispatchQ  uint64   `json:"dispatch_q"`
	EpochOpen  bool     `json:"epoch_open"`
	EpochEnd   uint64   `json:"epoch_end"`
	EpochCount int      `json:"epoch_count"`
	EpochInstr uint64   `json:"epoch_instr"`
	Stats      CPUStats `json:"stats"`
	Last       CPUStats `json:"last"`
}

// CPUStats mirrors cpu.Stats.
type CPUStats struct {
	Instructions uint64 `json:"instructions"`
	MemAccesses  uint64 `json:"mem_accesses"`
	LongMisses   uint64 `json:"long_misses"`
	Epochs       uint64 `json:"epochs"`
	MissLatSum   uint64 `json:"miss_lat_sum"`
	MissStall    uint64 `json:"miss_stall"`
}

// Cache is a positional dump of one cache array: parallel slices of length
// Sets×Ways in (set-major, way-minor) order. Invalid ways are included —
// victim choice depends on exact line layout and LRU stamps.
type Cache struct {
	Sets      int        `json:"sets"`
	Ways      int        `json:"ways"`
	Clk       uint64     `json:"clk"`
	Addrs     []uint64   `json:"addrs"`
	Flags     []byte     `json:"flags"` // bit0 valid, bit1 dirty
	Owners    []int16    `json:"owners"`
	Sharers   []uint64   `json:"sharers"`
	Used      []uint64   `json:"used"`
	Occupancy []uint64   `json:"occupancy"`
	Stats     CacheStats `json:"stats"`
}

// CacheStats mirrors cache.Stats.
type CacheStats struct {
	Accesses    uint64 `json:"accesses"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	DirtyEvicts uint64 `json:"dirty_evicts"`
	Invals      uint64 `json:"invals"`
	BulkWalks   uint64 `json:"bulk_walks"`
}

// Umon mirrors umon.Monitor: the sampled LRU shadow stacks plus the scaled
// hit/miss counters (floats as bits).
type Umon struct {
	Stacks           [][]uint64 `json:"stacks"`
	HitsBits         []uint64   `json:"hits_bits"`
	MissesBits       uint64     `json:"misses_bits"`
	AccessesBits     uint64     `json:"accesses_bits"`
	LastHitsBits     []uint64   `json:"last_hits_bits"`
	LastMissesBits   uint64     `json:"last_misses_bits"`
	LastAccessesBits uint64     `json:"last_accesses_bits"`
}

// Gen is a trace generator's cursor state, mirroring the generator tree
// shape: a type tag, a flat word vector (RNG state, positions, counters —
// layout is per-Kind), and child cursors in tree order.
type Gen struct {
	Kind  string   `json:"kind"`
	Words []uint64 `json:"words,omitempty"`
	Kids  []Gen    `json:"kids,omitempty"`
}

// Policy is the partitioning policy's state. Kind is the policy's Name();
// a stateful policy stores its own payload, State, under Key (the policy
// package owns the payload's type and marshals it itself). Stateless
// policies (S-NUCA, private) carry only Kind. Build a payload with
// NewPolicyState and read it back with DecodeState.
//
// The wire form is {"kind":Kind}, or {"kind":Kind,"<Key>":State} when State
// is set. Key need not equal Kind: the centralized policy is Kind
// "ideal-central" with its payload under "ideal".
type Policy struct {
	Kind  string
	Key   string
	State json.RawMessage
}

// NewPolicyState marshals v as the payload of a kind policy under key.
func NewPolicyState(kind, key string, v any) (*Policy, error) {
	state, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s policy state: %w", kind, err)
	}
	return &Policy{Kind: kind, Key: key, State: state}, nil
}

// DecodeState unmarshals the payload stored under key into v. It fails when
// the snapshot carries no payload or carries it under another key.
func (p *Policy) DecodeState(key string, v any) error {
	if p.State == nil || p.Key != key {
		return fmt.Errorf("snapshot: policy %q has no %q state", p.Kind, key)
	}
	if err := json.Unmarshal(p.State, v); err != nil {
		return fmt.Errorf("snapshot: policy %q state: %w", p.Kind, err)
	}
	return nil
}

// MarshalJSON implements json.Marshaler with the wire form above.
func (p Policy) MarshalJSON() ([]byte, error) {
	kind, _ := json.Marshal(p.Kind) // marshaling a string cannot fail
	b := append([]byte(`{"kind":`), kind...)
	if p.State != nil {
		if p.Key == "" {
			return nil, fmt.Errorf("snapshot: policy %q has state but no key", p.Kind)
		}
		key, _ := json.Marshal(p.Key)
		b = append(append(append(b, ','), key...), ':')
		b = append(b, p.State...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler: an object holding "kind" plus
// at most one payload key. A null payload counts as absent.
func (p *Policy) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return err
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		if k != "kind" {
			keys = append(keys, k)
		}
	}
	if len(keys) > 1 {
		sort.Strings(keys)
		return fmt.Errorf("snapshot: policy has %d payloads (%s), want at most one", len(keys), strings.Join(keys, ", "))
	}
	*p = Policy{}
	if raw, ok := fields["kind"]; ok {
		if err := json.Unmarshal(raw, &p.Kind); err != nil {
			return err
		}
	}
	if len(keys) == 1 && string(fields[keys[0]]) != "null" {
		p.Key, p.State = keys[0], fields[keys[0]]
	}
	return nil
}

// FloatBits returns fs as IEEE-754 bit patterns; nil stays nil.
func FloatBits(fs []float64) []uint64 {
	if fs == nil {
		return nil
	}
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

// BitsInto overwrites dst with the floats whose bit patterns are bits,
// stopping at the shorter of the two.
func BitsInto(dst []float64, bits []uint64) {
	for i := range min(len(dst), len(bits)) {
		dst[i] = math.Float64frombits(bits[i])
	}
}

// MatrixBits is FloatBits row by row; nil rows stay nil.
func MatrixBits[T ~[]float64](rows []T) [][]uint64 {
	if rows == nil {
		return nil
	}
	out := make([][]uint64, len(rows))
	for i, row := range rows {
		out[i] = FloatBits(row)
	}
	return out
}

// BitsMatrix inverts MatrixBits into n rows. Nil rows, and rows beyond
// len(bits), stay nil.
func BitsMatrix[T ~[]float64](bits [][]uint64, n int) []T {
	out := make([]T, n)
	for i := range min(n, len(bits)) {
		if bits[i] != nil {
			out[i] = make(T, len(bits[i]))
			BitsInto(out[i], bits[i])
		}
	}
	return out
}

// CBT is a cluster bank table in range form; the dense bucket array is
// rebuilt (and re-validated) on restore.
type CBT struct {
	Ranges []CBTRange `json:"ranges"`
}

// CBTRange mirrors cbt.Range.
type CBTRange struct {
	Start int `json:"start"`
	End   int `json:"end"`
	Bank  int `json:"bank"`
}

// NoC mirrors noc.Mesh's mutable state.
type NoC struct {
	Stats NoCStats `json:"stats"`
	// Links, present only when per-link accounting is enabled, is sorted by
	// (A, B).
	Links []Link `json:"links,omitempty"`
}

// NoCStats mirrors noc.Stats.
type NoCStats struct {
	Messages [3]uint64 `json:"messages"`
	Hops     [3]uint64 `json:"hops"`
}

// Link is one directed mesh link's traversal count.
type Link struct {
	A     int    `json:"a"`
	B     int    `json:"b"`
	Count uint64 `json:"count"`
}

// Mem mirrors mem.System: per-controller channel horizons and stats.
type Mem struct {
	Busy  []uint64   `json:"busy"`
	Stats []MemStats `json:"stats"`
}

// MemStats mirrors mem.Stats.
type MemStats struct {
	Requests   uint64 `json:"requests"`
	QueueDelay uint64 `json:"queue_delay"`
}

// Classifier mirrors coherence.Classifier, with the page map serialized
// sorted by page number for determinism.
type Classifier struct {
	Pages []Page          `json:"pages"`
	Stats ClassifierStats `json:"stats"`
}

// Page is one classified page.
type Page struct {
	Page   uint64 `json:"page"`
	Owner  int32  `json:"owner"`
	Shared bool   `json:"shared,omitempty"`
}

// ClassifierStats mirrors coherence.Stats.
type ClassifierStats struct {
	PagesSeen         uint64 `json:"pages_seen"`
	SharedPages       uint64 `json:"shared_pages"`
	Reclassifications uint64 `json:"reclassifications"`
}

// Sampler is the telemetry sampling window's cursor, captured so restored
// runs emit the same sample boundaries.
type Sampler struct {
	Quanta int      `json:"quanta"`
	Cycle  uint64   `json:"cycle"`
	NoC    NoCStats `json:"noc"`
	Mem    MemStats `json:"mem"`
}

// Encode serializes an envelope in the canonical form (see codec.go): the
// bytes json.Marshal would produce, with the current schema version in
// place of env.SchemaVersion. The envelope is only read, so goroutines may
// encode one shared envelope concurrently.
func Encode(env *Envelope) ([]byte, error) {
	e := encoder{buf: make([]byte, 0, sizeHint(env))}
	e.envelope(env)
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// Decode parses an envelope, rejecting any schema version other than the
// current one with a *VersionError. Input in the canonical form takes the
// one-pass parser; anything else (whitespace, reordered or unknown keys,
// escapes, malformed bytes) goes to json.Unmarshal, so every input is
// accepted or rejected, and decodes, exactly as encoding/json would.
func Decode(data []byte) (*Envelope, error) {
	env, ok := DecodeCanonical(data)
	if !ok {
		env = &Envelope{}
		if err := json.Unmarshal(data, env); err != nil {
			return nil, fmt.Errorf("snapshot: decode: %w", err)
		}
	}
	if env.SchemaVersion != Version {
		return nil, &VersionError{Got: env.SchemaVersion, Want: Version}
	}
	if env.Chip == nil {
		return nil, errors.New("snapshot: envelope has no chip state")
	}
	return env, nil
}

// DecodeCanonical parses data only if it is in the canonical form Encode
// writes, reporting ok=false (and no error) for any other input. What it
// accepts, it decodes to the value json.Unmarshal would produce. It does not
// check the schema version or the chip's presence; Decode does.
func DecodeCanonical(data []byte) (env *Envelope, ok bool) {
	d := decoder{data: data, ok: true}
	env = d.envelope()
	if !d.ok {
		return nil, false
	}
	return env, true
}
