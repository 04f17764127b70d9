package telemetry

import "sort"

// Memory is the in-process recorder backing tests and the delta-trace
// timeline: events in a bounded ring, samples in order, counters and gauges
// in maps with deterministic (sorted) accessors.
type Memory struct {
	ring     *EventRing
	samples  []Sample
	counters map[string]uint64
	gauges   map[string]float64
}

// NewMemory builds a memory recorder retaining up to eventCap events
// (<= 0 uses DefaultEventCap).
func NewMemory(eventCap int) *Memory {
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	return &Memory{
		ring:     NewEventRing(eventCap),
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
	}
}

// Event implements Recorder.
func (m *Memory) Event(ev Event) { m.ring.Push(ev) }

// Sample implements Recorder.
func (m *Memory) Sample(s Sample) { m.samples = append(m.samples, s) }

// Count implements Recorder.
func (m *Memory) Count(name string, delta uint64) { m.counters[name] += delta }

// Gauge implements Recorder.
func (m *Memory) Gauge(name string, v float64) { m.gauges[name] = v }

// Flush implements Recorder.
func (m *Memory) Flush() error { return nil }

// Events returns the retained events, oldest first.
func (m *Memory) Events() []Event { return m.ring.Events() }

// EventsOfKind filters the retained events.
func (m *Memory) EventsOfKind(k EventKind) []Event {
	var out []Event
	for _, ev := range m.ring.Events() {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// DroppedEvents reports ring evictions.
func (m *Memory) DroppedEvents() uint64 { return m.ring.Dropped() }

// Samples returns the recorded time series in emission order.
func (m *Memory) Samples() []Sample { return m.samples }

// Counter returns the named counter (0 when never counted).
func (m *Memory) Counter(name string) uint64 { return m.counters[name] }

// GaugeValue returns the named gauge and whether it was ever set.
func (m *Memory) GaugeValue(name string) (float64, bool) {
	v, ok := m.gauges[name]
	return v, ok
}

// CounterNames returns every counter name, sorted.
func (m *Memory) CounterNames() []string { return sortedKeys(m.counters) }

func sortedKeys[V any](mp map[string]V) []string {
	out := make([]string, 0, len(mp))
	for k := range mp {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
