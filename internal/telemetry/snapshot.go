package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Snapshot is a point-in-time copy of a recorder's aggregate state: every
// counter and gauge, deep-copied so the caller can read it without holding
// any lock. It is the bridge between the simulator's internal telemetry and
// external exposition formats (the serving layer's /metrics endpoint).
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]float64
	// TaggedCounters and TaggedGauges hold the per-emitter series recorded
	// through TaggedRecorder. They are the only home for tagged data: the
	// deprecated "tag.name" flat aliases are no longer written to the plain
	// maps.
	TaggedCounters map[TaggedKey]uint64
	TaggedGauges   map[TaggedKey]float64
}

// Snapshot copies the recorder's counters and gauges. Memory is not safe for
// concurrent use, so this must not race with emitters; concurrent systems
// use Shared, whose Snapshot takes the recorder's lock.
func (m *Memory) Snapshot() Snapshot {
	s := Snapshot{
		Counters:       make(map[string]uint64, len(m.counters)),
		Gauges:         make(map[string]float64, len(m.gauges)),
		TaggedCounters: make(map[TaggedKey]uint64, len(m.taggedCounters)),
		TaggedGauges:   make(map[TaggedKey]float64, len(m.taggedGauges)),
	}
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	for k, v := range m.gauges {
		s.Gauges[k] = v
	}
	for k, v := range m.taggedCounters {
		s.TaggedCounters[k] = v
	}
	for k, v := range m.taggedGauges {
		s.TaggedGauges[k] = v
	}
	return s
}

// Shared is a concurrent-safe aggregate of counters and gauges: every
// Recorder method and Snapshot take one mutex. It backs long-lived processes
// where many simulations emit into one aggregate view that is read while
// runs are still in flight (the serving layer's /metrics). Events and
// samples are dropped, so the aggregate stays the same size however many
// jobs the process runs. One-shot campaigns that want those keep using
// Memory with a FanIn, which serializes writes but leaves reads to after the
// run.
type Shared struct {
	mu  sync.Mutex
	mem *Memory
}

// NewShared builds an empty concurrent-safe aggregate.
func NewShared() *Shared { return &Shared{mem: newAggregate()} }

// Event implements Recorder by dropping the event.
func (s *Shared) Event(Event) {}

// Sample implements Recorder by dropping the sample.
func (s *Shared) Sample(Sample) {}

// Count implements Recorder.
func (s *Shared) Count(name string, delta uint64) {
	s.mu.Lock()
	s.mem.Count(name, delta)
	s.mu.Unlock()
}

// Gauge implements Recorder.
func (s *Shared) Gauge(name string, v float64) {
	s.mu.Lock()
	s.mem.Gauge(name, v)
	s.mu.Unlock()
}

// Flush implements Recorder.
func (s *Shared) Flush() error { return nil }

// CountTagged implements TaggedRecorder.
func (s *Shared) CountTagged(tag, name string, delta uint64) {
	s.mu.Lock()
	s.mem.CountTagged(tag, name, delta)
	s.mu.Unlock()
}

// GaugeTagged implements TaggedRecorder.
func (s *Shared) GaugeTagged(tag, name string, v float64) {
	s.mu.Lock()
	s.mem.GaugeTagged(tag, name, v)
	s.mu.Unlock()
}

// Counter returns the named counter (0 when never counted).
func (s *Shared) Counter(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.Counter(name)
}

// Snapshot deep-copies the counters and gauges under the recorder's lock.
func (s *Shared) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.Snapshot()
}

// PromName sanitizes a telemetry name into a legal Prometheus metric name:
// every character outside [a-zA-Z0-9_:] becomes '_' (so "delta.challenges"
// exposes as "delta_challenges"), and a leading digit gains a '_' prefix.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		legal := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !legal {
			b.WriteByte('_')
			continue
		}
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// promLabelEscape escapes a label value per the exposition format.
func promLabelEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as TYPE counter, gauges as TYPE gauge,
// names sanitized by PromName and emitted in sorted order so the output is
// deterministic. Colliding sanitized counter names are summed; colliding
// gauges keep the last value in sorted source order.
//
// Per-emitter series recorded through TaggedRecorder are emitted as labeled
// samples — name{tag="w2"} — under the base metric name, the tag a proper
// Prometheus dimension. The labeled form is the only shape: the "tag_name"
// flat aliases that duplicated every tagged series for one deprecation
// release are no longer emitted.
func WritePrometheus(w io.Writer, s Snapshot) error {
	counters := make(map[string]uint64, len(s.Counters))
	for name, v := range s.Counters {
		counters[PromName(name)] += v
	}
	gauges := make(map[string]float64, len(s.Gauges))
	for _, name := range sortedKeys(s.Gauges) {
		gauges[PromName(name)] = s.Gauges[name]
	}
	// Group tagged series by sanitized base name, tags sorted within each.
	tc := make(map[string]map[string]uint64)
	for k, v := range s.TaggedCounters {
		name := PromName(k.Name)
		if tc[name] == nil {
			tc[name] = make(map[string]uint64)
		}
		tc[name][k.Tag] += v
	}
	tg := make(map[string]map[string]float64)
	for _, k := range sortedTaggedKeys(s.TaggedGauges) {
		name := PromName(k.Name)
		if tg[name] == nil {
			tg[name] = make(map[string]float64)
		}
		tg[name][k.Tag] = s.TaggedGauges[k]
	}

	cFams := sortedKeys(counters)
	for name := range tc {
		if _, ok := counters[name]; !ok {
			cFams = append(cFams, name)
		}
	}
	sort.Strings(cFams)
	for _, name := range cFams {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", name); err != nil {
			return err
		}
		if v, ok := counters[name]; ok {
			if _, err := fmt.Fprintf(w, "%s %d\n", name, v); err != nil {
				return err
			}
		}
		for _, tag := range sortedKeys(tc[name]) {
			if _, err := fmt.Fprintf(w, "%s{tag=%q} %d\n", name, promLabelEscape(tag), tc[name][tag]); err != nil {
				return err
			}
		}
	}

	gFams := sortedKeys(gauges)
	for name := range tg {
		if _, ok := gauges[name]; !ok {
			gFams = append(gFams, name)
		}
	}
	sort.Strings(gFams)
	for _, name := range gFams {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
			return err
		}
		if v, ok := gauges[name]; ok {
			if _, err := fmt.Fprintf(w, "%s %g\n", name, v); err != nil {
				return err
			}
		}
		for _, tag := range sortedKeys(tg[name]) {
			if _, err := fmt.Fprintf(w, "%s{tag=%q} %g\n", name, promLabelEscape(tag), tg[name][tag]); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortedTaggedKeys orders tagged keys by (name, tag) for deterministic folds.
func sortedTaggedKeys[V any](m map[TaggedKey]V) []TaggedKey {
	out := make([]TaggedKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}
