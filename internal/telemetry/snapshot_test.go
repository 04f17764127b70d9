package telemetry

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestMemorySnapshotDeepCopies(t *testing.T) {
	m := NewMemory(0)
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

// TestSharedConcurrentSampleAndExposition hammers Sample/Count/CountTagged
// against concurrent WritePrometheus renders; under -race this proves the
// whole snapshot-and-render path never reads live maps.
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
	var total uint64
	for k, v := range snap.TaggedCounters {
		if k.Name == "emitted" {
			total += v
		}
	}
	if total != 4*200 {
		t.Fatalf("tagged emitted total = %d, want 800", total)
	}
}

// TestWritePrometheusTagLabels pins the labeled exposition shape and
// verifies the deprecated prefixed aliases are no longer emitted.
func TestWritePrometheusTagLabels(t *testing.T) {
	s := NewShared()
	fan := NewFanIn(s)
	fan.Tag("w2").Count("delta.challenges", 5)
	fan.Tag("mixed").Count("delta.challenges", 2)
	fan.Tag("w2").Gauge("queue.depth", 1.5)
	s.Count("delta.challenges", 1) // untagged sample in the same family

	var b strings.Builder
	if err := WritePrometheus(&b, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE delta_challenges counter\n",
		"delta_challenges 1\n",
		"delta_challenges{tag=\"mixed\"} 2\n",
		"delta_challenges{tag=\"w2\"} 5\n",
		"queue_depth{tag=\"w2\"} 1.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The one-release deprecated aliases must not reappear.
	for _, gone := range []string{
		"w2_delta_challenges ",
		"mixed_delta_challenges ",
		"w2_queue_depth ",
	} {
		if strings.Contains(out, gone) {
			t.Fatalf("deprecated alias %q still emitted:\n%s", gone, out)
		}
	}
	if strings.Count(out, "# TYPE delta_challenges counter\n") != 1 {
		t.Fatalf("family TYPE line duplicated:\n%s", out)
	}
	// The labeled samples sit directly under their family's TYPE line.
	idx := strings.Index(out, "# TYPE delta_challenges counter\n")
	block := out[idx:]
	if end := strings.Index(block[1:], "# TYPE"); end >= 0 {
		block = block[:end+1]
	}
	if !strings.Contains(block, `{tag="w2"}`) {
		t.Fatalf("labeled sample not grouped with its family:\n%s", out)
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
