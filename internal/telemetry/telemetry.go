// Package telemetry is the simulator's unified observability layer: a
// pluggable Recorder interface carrying counters, gauges, per-quantum time
// series samples and structured reconfiguration events. Nop (measured at
// <2% overhead on the Fig. 5 hot path by BenchmarkTelemetryOverhead) is the
// default; Memory backs tests and the delta-trace timeline; Stream writes
// JSONL for offline analysis; Shared aggregates counters and gauges for a
// service's /metrics; Multi fans out to several recorders and FanIn
// serializes concurrent chips into one.
//
// The layer is sampling-based by design: nothing in the per-access hot path
// touches a Recorder. The chip emits time-series samples at quantum
// boundaries, the policies emit events only when they reconfigure, and the
// aggregate counters/gauges are published once at the end of a run. That
// keeps the cost of an attached recorder proportional to reconfiguration
// activity, not to instruction throughput.
package telemetry

// EventKind labels a structured event.
type EventKind uint8

// Event kinds. The payload fields of Event that are meaningful for each kind
// are documented on Event.
const (
	// KindChallenge is an inter-bank challenge being issued (Algorithm 1).
	KindChallenge EventKind = iota
	// KindChallengeResult is the challenger receiving its response.
	KindChallengeResult
	// KindCede is a defender ceding ways to a challenge winner.
	KindCede
	// KindIdleGrant is an idle home tile handing over its bank wholesale.
	KindIdleGrant
	// KindIntraShift is an intra-bank way move (Algorithm 2).
	KindIntraShift
	// KindRetreat is a partition losing its last way in a remote bank.
	KindRetreat
	// KindRemap is a CBT rebuild, with the bulk-invalidation line count.
	KindRemap
	// KindAlloc is one centralized allocator invocation (ideal policy).
	KindAlloc
	// KindQuantumSample tags time-series samples in streamed output.
	KindQuantumSample
)

// String returns the stable wire name used in JSONL output.
func (k EventKind) String() string {
	switch k {
	case KindChallenge:
		return "challenge"
	case KindChallengeResult:
		return "challenge-result"
	case KindCede:
		return "cede"
	case KindIdleGrant:
		return "idle-grant"
	case KindIntraShift:
		return "intra-shift"
	case KindRetreat:
		return "retreat"
	case KindRemap:
		return "remap"
	case KindAlloc:
		return "alloc"
	case KindQuantumSample:
		return "quantum-sample"
	}
	return "unknown"
}

// Event is one structured reconfiguration event. Cycle and Kind are always
// set; the rest is the typed payload, meaningful per kind:
//
//	challenge         Core=challenger, Bank=challenged tile, GainTo=challenger gain
//	challenge-result  Core=challenger, Bank=challenged tile, Won, Ways won
//	cede              Core=victim, Peer=winner, Bank, Ways, GainFrom=defense value, GainTo=winner gain
//	idle-grant        Core=idle home, Peer=winner, Bank, Ways
//	intra-shift       Core=winner, Peer=loser, Bank, Ways, GainFrom=loser gain, GainTo=winner gain
//	retreat           Core=loser, Bank=abandoned bank
//	remap             Core=remapped partition, Lines=LLC lines invalidated
//	alloc             Core=-1, Nanos=allocator wall-clock, Ways=max per-app change
type Event struct {
	Cycle    uint64
	Kind     EventKind
	Core     int
	Bank     int
	Peer     int
	Ways     int
	Lines    int
	Won      bool
	GainFrom float64
	GainTo   float64
	Nanos    int64
	// Tag identifies the emitting chip when several simulations share one
	// recorder through a FanIn (e.g. "delta/w2/16"); empty otherwise.
	Tag string
}

// Sample is one per-quantum time-series point. Tile >= 0 carries the tile's
// core- and bank-local series; Tile == ChipWide carries the chip-wide series
// (NoC utilization, MCU queue depth) and leaves the per-tile fields zero.
type Sample struct {
	Cycle uint64
	Tile  int
	// Tag identifies the emitting chip when several simulations share one
	// recorder through a FanIn; empty otherwise.
	Tag string
	// Per-tile fields (windowed since the previous sample).
	IPC         float64
	MPKI        float64
	BankFill    float64 // valid lines / capacity, instantaneous
	BankHitRate float64
	// Chip-wide fields.
	NoCLinkUtil float64 // flit-hops per directed-link-cycle in the window
	MCUQueue    float64 // time-averaged requests waiting at the MCUs
}

// ChipWide is the Sample.Tile value for chip-wide samples.
const ChipWide = -1

// Recorder receives telemetry. Implementations must tolerate being shared by
// multiple emitters within one single-threaded simulation; they are not
// required to be safe for concurrent use (a single chip simulation is
// single-threaded by construction). Campaigns that run several chips in
// parallel against one recorder wrap it in a FanIn, which serializes
// delivery and tags each chip's stream.
type Recorder interface {
	// Event records a structured reconfiguration event.
	Event(ev Event)
	// Sample records a per-quantum time-series point.
	Sample(s Sample)
	// Count adds delta to the named monotonic counter.
	Count(name string, delta uint64)
	// Gauge sets the named gauge to v.
	Gauge(name string, v float64)
	// Flush finalizes buffered output (streaming sinks); in-memory
	// recorders return nil.
	Flush() error
}

// Nop is the zero-cost recorder: every method is an empty leaf the compiler
// can inline away. It is the default everywhere a Recorder is threaded.
type Nop struct{}

// Event implements Recorder.
func (Nop) Event(Event) {}

// Sample implements Recorder.
func (Nop) Sample(Sample) {}

// Count implements Recorder.
func (Nop) Count(string, uint64) {}

// Gauge implements Recorder.
func (Nop) Gauge(string, float64) {}

// Flush implements Recorder.
func (Nop) Flush() error { return nil }

// Multi fans telemetry out to several recorders (e.g. an in-memory recorder
// for a live timeline plus a JSONL stream on disk).
type Multi []Recorder

// NewMulti builds a fan-out recorder.
func NewMulti(recs ...Recorder) Multi { return Multi(recs) }

// Event implements Recorder.
func (m Multi) Event(ev Event) {
	for _, r := range m {
		r.Event(ev)
	}
}

// Sample implements Recorder.
func (m Multi) Sample(s Sample) {
	for _, r := range m {
		r.Sample(s)
	}
}

// Count implements Recorder.
func (m Multi) Count(name string, delta uint64) {
	for _, r := range m {
		r.Count(name, delta)
	}
}

// Gauge implements Recorder.
func (m Multi) Gauge(name string, v float64) {
	for _, r := range m {
		r.Gauge(name, v)
	}
}

// Flush implements Recorder, returning the first error.
func (m Multi) Flush() error {
	var first error
	for _, r := range m {
		if err := r.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
