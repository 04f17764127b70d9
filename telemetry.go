package delta

import (
	"io"

	"delta/internal/telemetry"
	"delta/internal/telemetry/columnar"
)

// Recorder is the telemetry sink threaded through the simulator: structured
// reconfiguration events, per-quantum time-series samples, counters and
// gauges. Attach one via Config.Recorder. See the internal/telemetry package
// documentation for the event schema.
type Recorder = telemetry.Recorder

// TelemetryEvent is one structured reconfiguration event.
type TelemetryEvent = telemetry.Event

// TelemetrySample is one per-quantum time-series point.
type TelemetrySample = telemetry.Sample

// EventKind labels a TelemetryEvent.
type EventKind = telemetry.EventKind

// Event kinds, re-exported for payload inspection.
const (
	KindChallenge       = telemetry.KindChallenge
	KindChallengeResult = telemetry.KindChallengeResult
	KindCede            = telemetry.KindCede
	KindIdleGrant       = telemetry.KindIdleGrant
	KindIntraShift      = telemetry.KindIntraShift
	KindRetreat         = telemetry.KindRetreat
	KindRemap           = telemetry.KindRemap
	KindAlloc           = telemetry.KindAlloc
	KindQuantumSample   = telemetry.KindQuantumSample
)

// ChipWideSample is the TelemetrySample.Tile value of chip-wide samples.
const ChipWideSample = telemetry.ChipWide

// MemoryRecorder retains telemetry in process: events in a bounded ring,
// samples in order, counters/gauges in maps with sorted accessors.
type MemoryRecorder = telemetry.Memory

// StreamRecorder writes telemetry to an io.Writer as JSONL.
type StreamRecorder = telemetry.Stream

// NopRecorder discards everything at (benchmarked) negligible cost.
type NopRecorder = telemetry.Nop

// NewMemoryRecorder builds an in-memory recorder retaining up to eventCap
// events (<= 0 uses the default capacity).
func NewMemoryRecorder(eventCap int) *MemoryRecorder {
	return telemetry.NewMemory(eventCap)
}

// NewJSONLRecorder builds a streaming recorder emitting one JSON object per
// line; call Flush when the run completes.
func NewJSONLRecorder(w io.Writer) *StreamRecorder { return telemetry.NewJSONL(w) }

// NewMultiRecorder fans telemetry out to several recorders.
func NewMultiRecorder(recs ...Recorder) Recorder { return telemetry.NewMulti(recs...) }

// ColumnarConfig tunes a columnar segment-sink recorder; only Dir is
// required. See internal/telemetry/columnar for the segment format.
type ColumnarConfig = columnar.Config

// ColumnarRecorder streams per-quantum samples into rotating, CRC-framed,
// schema-versioned columnar segment files with deterministic downsampling
// tiers (raw, 1/10, 1/100) and per-job retention caps — the telemetry sink
// that scales to long campaigns where an in-memory sample slice cannot. Close
// it when the run completes. Query segment directories with
// columnar.OpenDir/Range (or delta-served's /telemetry endpoint) and merge
// multi-node directories with `delta-trace merge`.
type ColumnarRecorder = columnar.Writer

// NewColumnarRecorder opens (creating if needed) cfg.Dir and appends a fresh
// segment after any already present.
func NewColumnarRecorder(cfg ColumnarConfig) (*ColumnarRecorder, error) {
	return columnar.NewWriter(cfg)
}

// ColumnarDir reads one job's columnar segment directory.
type ColumnarDir = columnar.Dir

// ColumnarQuery selects rows from a segment directory: a cycle range, a
// resolution factor (1, 10 or 100, with fallback to finer tiers), and an
// optional tag filter.
type ColumnarQuery = columnar.Query

// ColumnarRow is one decoded time-series point with its provenance.
type ColumnarRow = columnar.Row

// OpenColumnarDir indexes a segment directory for range queries, validating
// every segment's header and checksums.
func OpenColumnarDir(dir string) (*ColumnarDir, error) { return columnar.OpenDir(dir) }
