package columnar

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// Query selects rows from a segment directory.
type Query struct {
	// From and To bound the cycle range, inclusive. To == 0 means
	// unbounded above.
	From, To uint64
	// Res requests a resolution factor: 1 (raw, the default for 0), 10 or
	// 100. When the requested tier holds no data anywhere in the directory,
	// the reader falls back to the next finer tier that does (100 → 10 →
	// raw); each emitted Row carries the resolution actually served.
	Res int
	// Tags restricts to the given emitter tags; empty means all.
	Tags []string
}

// segInfo is one on-disk segment.
type segInfo struct {
	path string
	seq  int
	size int64
}

var segName = regexp.MustCompile(`^seg-(\d{6})\.dseg$`)

// listSegments returns the directory's segments in sequence order.
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range ents {
		m := segName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		seq, _ := strconv.Atoi(m[1])
		info, err := e.Info()
		if err != nil {
			continue
		}
		segs = append(segs, segInfo{path: filepath.Join(dir, e.Name()), seq: seq, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// Dir reads one job's segment directory. Opening validates every segment's
// header and frame checksums and indexes the tags and tiers present, so
// malformed input fails fast with a structural error rather than surfacing
// mid-stream.
type Dir struct {
	dir   string
	job   string
	segs  []segInfo
	tags  []string
	tiers [numTiers]bool
}

// OpenDir indexes the segment directory at dir. A missing directory returns
// the underlying fs.ErrNotExist; an empty one yields a Dir with no rows.
func OpenDir(dir string) (*Dir, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	d := &Dir{dir: dir, segs: segs}
	tagSet := map[string]bool{}
	for _, s := range segs {
		err := d.scanSegment(s.path, func(h blockHeader, cols []byte) error {
			tagSet[h.tag] = true
			if h.kind == blockSamples {
				d.tiers[h.tier] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	d.tags = make([]string, 0, len(tagSet))
	for t := range tagSet {
		d.tags = append(d.tags, t)
	}
	sort.Strings(d.tags)
	return d, nil
}

// Job returns the job name stamped in the segment headers.
func (d *Dir) Job() string { return d.job }

// Tags returns the sorted set of emitter tags present.
func (d *Dir) Tags() []string { return d.tags }

// HasTag reports whether tag appears anywhere in the directory.
func (d *Dir) HasTag(tag string) bool {
	i := sort.SearchStrings(d.tags, tag)
	return i < len(d.tags) && d.tags[i] == tag
}

// Resolutions returns the resolution factors with data, finest first.
func (d *Dir) Resolutions() []int {
	var out []int
	for t, ok := range d.tiers {
		if ok {
			out = append(out, Resolutions[t])
		}
	}
	return out
}

// scanSegment walks one segment's frames, handing each block header and its
// column bytes to fn. A truncated tail (a writer mid-append) ends the scan
// cleanly; checksum or structural failures return an error.
func (d *Dir) scanSegment(path string, fn func(blockHeader, []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := &byteReader{r: bufio.NewReaderSize(f, 64<<10)}
	job, err := readHeader(br)
	if err != nil {
		return err
	}
	if d.job == "" {
		d.job = job
	}
	for {
		payload, err := readFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if payload == nil {
			return nil // truncated tail: treat as current end of stream
		}
		h, cols, err := decodeBlockHeader(payload)
		if err != nil {
			return err
		}
		if err := fn(h, cols); err != nil {
			return err
		}
	}
}

// errStop ends a scan early without reporting failure.
var errStop = errors.New("columnar: stop")

// effectiveTier resolves a requested resolution against the tiers present:
// the requested tier when populated, otherwise the next finer populated one.
func (d *Dir) effectiveTier(res int) (uint8, error) {
	if res == 0 {
		res = 1
	}
	t, err := TierOf(res)
	if err != nil {
		return 0, err
	}
	for ; t > tierRaw; t-- {
		if d.tiers[t] {
			break
		}
	}
	return uint8(t), nil
}

// Range streams the rows matching q, in on-disk order (segment, then frame,
// then row; cycles are non-decreasing within each tag). fn returning false
// stops the scan. Counter and gauge blocks are not part of the row stream —
// see Aggregates.
func (d *Dir) Range(q Query, fn func(Row) bool) error {
	tier, err := d.effectiveTier(q.Res)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, t := range q.Tags {
		want[t] = true
	}
	res := Resolutions[tier]
	for _, s := range d.segs {
		err := d.scanSegment(s.path, func(h blockHeader, cols []byte) error {
			if h.kind != blockSamples || h.tier != tier {
				return nil
			}
			if len(want) > 0 && !want[h.tag] {
				return nil
			}
			rows, err := decodeSampleRows(h, cols)
			if err != nil {
				return err
			}
			for _, r := range rows {
				if r.cycle < q.From || (q.To > 0 && r.cycle > q.To) {
					continue
				}
				if !fn(Row{
					Job: d.job, Tag: h.tag, Res: res,
					Cycle: r.cycle, Tile: r.tile,
					IPC: r.f[colIPC], MPKI: r.f[colMPKI],
					BankFill: r.f[colFill], BankHitRate: r.f[colHitRate],
					NoCLinkUtil: r.f[colNoCUtil], MCUQueue: r.f[colMCUQueue],
				}) {
					return errStop
				}
			}
			return nil
		})
		if errors.Is(err, errStop) {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Aggregates sums the directory's counter blocks and folds its gauge blocks
// (last write wins), reconstructing the end-of-run aggregate view.
func (d *Dir) Aggregates() (map[string]uint64, map[string]float64, error) {
	counters := map[string]uint64{}
	gauges := map[string]float64{}
	for _, s := range d.segs {
		err := d.scanSegment(s.path, func(h blockHeader, cols []byte) error {
			switch h.kind {
			case blockCounters:
				names, values, err := decodeCounterRows(h, cols)
				if err != nil {
					return err
				}
				for i, n := range names {
					counters[n] += values[i]
				}
			case blockGauges:
				names, values, err := decodeGaugeRows(h, cols)
				if err != nil {
					return err
				}
				for i, n := range names {
					gauges[n] = values[i]
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return counters, gauges, nil
}
