package columnar

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"delta/internal/telemetry"
)

// Config tunes a Writer. Only Dir is required.
type Config struct {
	// Dir is the segment directory (created if absent). One Writer owns one
	// directory: typically <telemetry-root>/<job-id>.
	Dir string
	// Job is stamped into every segment header; the merge tool orders
	// streams by it. Usually the job's content address.
	Job string
	// BlockRows caps how many rows one column block holds before it is
	// written out; <= 0 uses 256. Larger blocks compress better, smaller
	// blocks bound the data lost to a crash between flushes.
	BlockRows int
	// SegmentBytes rotates to a fresh segment file once the current one
	// exceeds this size; <= 0 uses 1 MiB.
	SegmentBytes int64
	// SegmentQuanta additionally rotates once a segment spans more than this
	// many cycles of simulated time; 0 disables cycle-based rotation.
	SegmentQuanta uint64
	// RetainBytes caps the directory's total size: after each rotation the
	// oldest closed segments are deleted until the total fits. 0 retains
	// everything.
	RetainBytes int64
	// NoDownsample disables the 1/10 and 1/100 tiers (raw only).
	NoDownsample bool
}

// pkey identifies one pending column block.
type pkey struct {
	tag  string
	tier uint8
}

// agg accumulates one (tag, tile) series toward a downsampled row.
type agg struct {
	n     int
	cycle uint64
	sums  [numFloatCols]float64
}

// akey identifies a downsampling accumulator.
type akey struct {
	tag  string
	tile int
	tier uint8
}

// Writer is the columnar segment sink: a telemetry.Recorder that streams
// samples into rotating, CRC-framed segment files with deterministic
// downsampling tiers and per-job retention. It is single-goroutine like the
// other non-Shared recorders (wrap in a FanIn to share); the simulator calls
// it only at quantum boundaries, so nothing here touches the per-access hot
// path.
//
// Reconfiguration events are not stored in the columnar format — they remain
// the domain of the JSONL stream and the server's progress feed; Event
// is a no-op. Counters and gauges accumulate and are written as sorted
// blocks on Flush, mirroring the Stream recorder.
type Writer struct {
	cfg Config
	err error // sticky first failure; Flush reports it

	f        *os.File
	bw       *bufio.Writer
	seq      int
	segBytes int64
	segFirst uint64 // first cycle seen in the current segment
	segHave  bool

	pending  map[pkey][]row
	aggs     map[akey]*agg
	counters map[string]uint64
	gauges   map[string]float64
	closed   bool
}

var _ telemetry.Recorder = (*Writer)(nil)

// NewWriter opens (creating if needed) cfg.Dir and starts a fresh segment
// after any that already exist, so a resumed job appends new segments
// instead of rewriting history.
func NewWriter(cfg Config) (*Writer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("columnar: Config.Dir is required")
	}
	if cfg.BlockRows <= 0 {
		cfg.BlockRows = 256
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 1 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		cfg:      cfg,
		pending:  make(map[pkey][]row),
		aggs:     make(map[akey]*agg),
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
	}
	w.seq = 0
	if n := len(segs); n > 0 {
		w.seq = segs[n-1].seq + 1
	}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

// segPath names segment seq within the writer's directory.
func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.dseg", seq))
}

func (w *Writer) openSegment() error {
	f, err := os.OpenFile(segPath(w.cfg.Dir, w.seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 64<<10)
	w.segBytes = 0
	w.segHave = false
	hdr := encodeHeader(w.cfg.Job)
	if _, err := w.bw.Write(hdr); err != nil {
		return err
	}
	w.segBytes += int64(len(hdr))
	return nil
}

// Event implements telemetry.Recorder. Events are not part of the columnar
// format (see the Writer doc comment).
func (w *Writer) Event(telemetry.Event) {}

// Sample implements telemetry.Recorder: the point joins its (tag, raw)
// block and feeds the downsampling tiers; full blocks are written out
// immediately.
func (w *Writer) Sample(s telemetry.Sample) {
	if w.err != nil || w.closed {
		return
	}
	r := row{cycle: s.Cycle, tile: s.Tile, f: [numFloatCols]float64{
		colIPC:      s.IPC,
		colMPKI:     s.MPKI,
		colFill:     s.BankFill,
		colHitRate:  s.BankHitRate,
		colNoCUtil:  s.NoCLinkUtil,
		colMCUQueue: s.MCUQueue,
	}}
	w.push(s.Tag, tierRaw, r)
	if !w.cfg.NoDownsample {
		w.downsample(s.Tag, tier10, r)
	}
}

// push appends a row to its pending block, writing the block when full.
func (w *Writer) push(tag string, tier uint8, r row) {
	k := pkey{tag: tag, tier: tier}
	w.pending[k] = append(w.pending[k], r)
	if len(w.pending[k]) >= w.cfg.BlockRows {
		w.writeSamples(k)
	}
}

// downsample feeds one row into the given tier's accumulator for its
// (tag, tile) series; a full window emits the mean row into that tier's
// pending block and cascades into the next tier.
func (w *Writer) downsample(tag string, tier uint8, r row) {
	k := akey{tag: tag, tile: r.tile, tier: tier}
	a := w.aggs[k]
	if a == nil {
		a = &agg{}
		w.aggs[k] = a
	}
	a.n++
	a.cycle = r.cycle
	for c := 0; c < numFloatCols; c++ {
		a.sums[c] += r.f[c]
	}
	if a.n < 10 {
		return
	}
	out := row{cycle: a.cycle, tile: r.tile}
	for c := 0; c < numFloatCols; c++ {
		out.f[c] = a.sums[c] / 10
	}
	*a = agg{}
	w.push(tag, tier, out)
	if tier < tier100 {
		w.downsample(tag, tier+1, out)
	}
}

// Count implements telemetry.Recorder; totals are written on Flush.
func (w *Writer) Count(name string, delta uint64) { w.counters[name] += delta }

// Gauge implements telemetry.Recorder; final values are written on Flush.
func (w *Writer) Gauge(name string, v float64) { w.gauges[name] = v }

// writeSamples encodes and frames one pending block, then clears it.
func (w *Writer) writeSamples(k pkey) {
	rows := w.pending[k]
	if len(rows) == 0 {
		return
	}
	delete(w.pending, k)
	w.writeFrame(encodeSampleBlock(k.tag, k.tier, rows), rows[0].cycle, rows[len(rows)-1].cycle)
}

// writeFrame appends one framed payload to the current segment and applies
// the rotation policy.
func (w *Writer) writeFrame(payload []byte, firstCycle, lastCycle uint64) {
	if w.err != nil {
		return
	}
	if !w.segHave {
		w.segFirst = firstCycle
		w.segHave = true
	}
	frame := appendFrame(nil, payload)
	if _, err := w.bw.Write(frame); err != nil {
		w.err = err
		return
	}
	w.segBytes += int64(len(frame))
	if w.segBytes >= w.cfg.SegmentBytes ||
		(w.cfg.SegmentQuanta > 0 && lastCycle-w.segFirst >= w.cfg.SegmentQuanta) {
		w.rotate()
	}
}

// rotate closes the current segment, enforces retention, and opens the next.
func (w *Writer) rotate() {
	if err := w.closeSegment(); err != nil {
		w.err = err
		return
	}
	w.enforceRetention()
	w.seq++
	if err := w.openSegment(); err != nil {
		w.err = err
	}
}

func (w *Writer) closeSegment() error {
	if w.f == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		w.f = nil
		return err
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// enforceRetention deletes the oldest closed segments until the directory
// fits under RetainBytes. The current (open) segment is never deleted.
func (w *Writer) enforceRetention() {
	if w.cfg.RetainBytes <= 0 {
		return
	}
	segs, err := listSegments(w.cfg.Dir)
	if err != nil {
		return
	}
	var total int64
	for _, s := range segs {
		total += s.size
	}
	for _, s := range segs[:max(0, len(segs)-1)] {
		if total <= w.cfg.RetainBytes {
			break
		}
		if os.Remove(s.path) == nil {
			total -= s.size
		}
	}
}

// Flush implements telemetry.Recorder: every pending block (raw and tiers,
// in sorted (tag, tier) order), then the accumulated counters and gauges,
// are written and the file is flushed to the OS. Partial downsampling
// windows stay buffered — they complete on later samples or are dropped at
// Close, keeping tier contents deterministic. Flush may be called
// repeatedly; counters and gauges are cleared once written.
func (w *Writer) Flush() error {
	if w.closed {
		return w.err
	}
	keys := make([]pkey, 0, len(w.pending))
	for k := range w.pending {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tag != keys[j].tag {
			return keys[i].tag < keys[j].tag
		}
		return keys[i].tier < keys[j].tier
	})
	for _, k := range keys {
		w.writeSamples(k)
	}
	if len(w.counters) > 0 {
		names := sortedNames(w.counters)
		w.writeFrame(encodeCounterBlock("", names, w.counters), 0, 0)
		w.counters = make(map[string]uint64)
	}
	if len(w.gauges) > 0 {
		names := sortedNames(w.gauges)
		w.writeFrame(encodeGaugeBlock("", names, w.gauges), 0, 0)
		w.gauges = make(map[string]float64)
	}
	if w.err == nil && w.bw != nil {
		if err := w.bw.Flush(); err != nil {
			w.err = err
		}
	}
	return w.err
}

// Close flushes and closes the current segment, then enforces retention one
// last time. The writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	err := w.Flush()
	w.closed = true
	if cerr := w.closeSegment(); cerr != nil && err == nil {
		err = cerr
	}
	w.enforceRetention()
	if w.err == nil {
		w.err = err
	}
	return err
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
