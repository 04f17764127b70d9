package telemetry

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestSharedSnapshotDeepCopies(t *testing.T) {
	m := NewShared()
	m.Count("a.b", 3)
	m.Gauge("g", 1.5)
	snap := m.Snapshot()
	m.Count("a.b", 4)
	m.Gauge("g", 9)
	if snap.Counters["a.b"] != 3 || snap.Gauges["g"] != 1.5 {
		t.Fatalf("snapshot mutated by later writes: %+v", snap)
	}
}

func TestSharedRecorderConcurrent(t *testing.T) {
	s := NewShared()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Count("hits", 1)
				s.Gauge("depth", float64(i))
				s.Event(Event{Kind: KindRemap})
				s.Sample(Sample{Tile: ChipWide})
				_ = s.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := s.Counter("hits"); got != 800 {
		t.Fatalf("hits = %d, want 800", got)
	}
}

// TestSharedRetainsNoSamples pins Shared as counters and gauges only: it
// aggregates every job of a long-lived process, so per-quantum samples and
// events must not accumulate in it.
func TestSharedRetainsNoSamples(t *testing.T) {
	s := NewShared()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 200_000; i++ {
		s.Sample(Sample{Cycle: uint64(i), Tile: i % 16, IPC: 1})
		s.Event(Event{Kind: KindRemap})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Fatalf("200k samples grew the heap by %d bytes; Shared must keep counters and gauges only", grown)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"delta.challenges":   "delta_challenges",
		"served/queue-depth": "served_queue_depth",
		"ok_name:sub":        "ok_name:sub",
		"9lives":             "_9lives",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Fatalf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusExposition(t *testing.T) {
	s := NewShared()
	s.Count("delta.challenges", 7)
	s.Gauge("served.queue.depth", 3)
	var b strings.Builder
	if err := WritePrometheus(&b, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE delta_challenges counter\ndelta_challenges 7\n",
		"# TYPE served_queue_depth gauge\nserved_queue_depth 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two renders are byte-identical.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Fatal("exposition output is not deterministic")
	}
}

// TestSharedConcurrentSampleAndExposition hammers Sample/Count/Gauge, direct
// and through tagged FanIn views, against concurrent WritePrometheus
// renders; under -race this proves the whole snapshot-and-render path never
// reads live maps.
func TestSharedConcurrentSampleAndExposition(t *testing.T) {
	s := NewShared()
	fan := NewFanIn(s)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := fan.Tag(tagName(w))
			for i := 0; i < 200; i++ {
				s.Sample(Sample{Cycle: uint64(i), Tile: w})
				rec.Count("emitted", 1)
				rec.Gauge("last", float64(i))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var b strings.Builder
				if err := WritePrometheus(&b, s.Snapshot()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	for w := 0; w < 4; w++ {
		if got := snap.Counters[tagName(w)+".emitted"]; got != 200 {
			t.Fatalf("%s.emitted = %d, want 200", tagName(w), got)
		}
	}
}

func TestWritePrometheusSumsCollidingCounters(t *testing.T) {
	snap := Snapshot{Counters: map[string]uint64{"a.b": 1, "a/b": 2}}
	var b strings.Builder
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "a_b 3\n") {
		t.Fatalf("colliding counters not summed:\n%s", b.String())
	}
}
