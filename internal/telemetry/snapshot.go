package telemetry

import (
	"fmt"
	"io"
	"maps"
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
	mu       sync.Mutex
	counters map[string]uint64
	gauges   map[string]float64
}

// NewShared builds an empty concurrent-safe aggregate.
func NewShared() *Shared {
	return &Shared{counters: make(map[string]uint64), gauges: make(map[string]float64)}
}

// Event implements Recorder by dropping the event.
func (s *Shared) Event(Event) {}

// Sample implements Recorder by dropping the sample.
func (s *Shared) Sample(Sample) {}

// Count implements Recorder.
func (s *Shared) Count(name string, delta uint64) {
	s.mu.Lock()
	s.counters[name] += delta
	s.mu.Unlock()
}

// Gauge implements Recorder.
func (s *Shared) Gauge(name string, v float64) {
	s.mu.Lock()
	s.gauges[name] = v
	s.mu.Unlock()
}

// Flush implements Recorder.
func (s *Shared) Flush() error { return nil }

// Counter returns the named counter (0 when never counted).
func (s *Shared) Counter(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Snapshot deep-copies the counters and gauges under the recorder's lock.
func (s *Shared) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{Counters: maps.Clone(s.counters), Gauges: maps.Clone(s.gauges)}
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

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as TYPE counter, gauges as TYPE gauge,
// names sanitized by PromName and emitted in sorted order so the output is
// deterministic. Colliding sanitized counter names are summed; colliding
// gauges keep the last value in sorted source order.
func WritePrometheus(w io.Writer, s Snapshot) error {
	counters := make(map[string]uint64, len(s.Counters))
	for name, v := range s.Counters {
		counters[PromName(name)] += v
	}
	gauges := make(map[string]float64, len(s.Gauges))
	for _, name := range sortedKeys(s.Gauges) {
		gauges[PromName(name)] = s.Gauges[name]
	}
	for _, name := range sortedKeys(counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, gauges[name]); err != nil {
			return err
		}
	}
	return nil
}
