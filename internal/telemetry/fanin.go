package telemetry

import "sync"

// FanIn makes a single Recorder shareable by simulations running on
// different goroutines: it serializes every call into the wrapped recorder
// behind one mutex, and stamps each emitter's records so interleaved streams
// stay attributable. delta-served wraps its -jsonl sink in a FanIn, one view
// per job, and the parallel campaign engine wraps Scale.Recorder in one
// whenever more than one chip may be in flight.
//
// Tagging scheme: events and samples carry the tag in their Tag field
// (serialized by Stream as a "tag" JSON key). Counters and gauges reach the
// wrapped recorder as "tag.name", so per-chip aggregates cannot collide.
type FanIn struct {
	mu    sync.Mutex
	inner Recorder
}

// NewFanIn wraps inner. The wrapped recorder itself need not be safe for
// concurrent use; all access is serialized by the FanIn.
func NewFanIn(inner Recorder) *FanIn {
	if inner == nil {
		return nil
	}
	return &FanIn{inner: inner}
}

// Tag returns a Recorder view for one emitter. All views share the FanIn's
// mutex, so any number of chips may emit concurrently. An empty tag
// serializes without renaming, which makes the view a plain thread-safety
// adapter.
func (f *FanIn) Tag(tag string) Recorder {
	return tagged{f: f, tag: tag}
}

// Flush flushes the wrapped recorder.
func (f *FanIn) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inner.Flush()
}

// tagged is one emitter's view of a FanIn.
type tagged struct {
	f   *FanIn
	tag string
}

// Event implements Recorder.
func (t tagged) Event(ev Event) {
	ev.Tag = t.tag
	t.f.mu.Lock()
	t.f.inner.Event(ev)
	t.f.mu.Unlock()
}

// Sample implements Recorder.
func (t tagged) Sample(s Sample) {
	s.Tag = t.tag
	t.f.mu.Lock()
	t.f.inner.Sample(s)
	t.f.mu.Unlock()
}

// Count implements Recorder under the "tag."-prefixed name.
func (t tagged) Count(name string, delta uint64) {
	t.f.mu.Lock()
	t.f.inner.Count(t.name(name), delta)
	t.f.mu.Unlock()
}

// Gauge implements Recorder under the "tag."-prefixed name.
func (t tagged) Gauge(name string, v float64) {
	t.f.mu.Lock()
	t.f.inner.Gauge(t.name(name), v)
	t.f.mu.Unlock()
}

// Flush implements Recorder by flushing the shared inner recorder.
func (t tagged) Flush() error { return t.f.Flush() }

func (t tagged) name(name string) string {
	if t.tag == "" {
		return name
	}
	return t.tag + "." + name
}
