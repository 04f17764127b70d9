package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// racyRecorder is deliberately not safe for concurrent use: it mutates plain
// fields on every call, so the race detector flags any FanIn serialization
// hole immediately.
type racyRecorder struct {
	events   []Event
	samples  []Sample
	counters map[string]uint64
	gauges   map[string]float64
	flushes  int
}

func newRacyRecorder() *racyRecorder {
	return &racyRecorder{counters: map[string]uint64{}, gauges: map[string]float64{}}
}

func (r *racyRecorder) Event(ev Event)               { r.events = append(r.events, ev) }
func (r *racyRecorder) Sample(s Sample)              { r.samples = append(r.samples, s) }
func (r *racyRecorder) Count(name string, d uint64)  { r.counters[name] += d }
func (r *racyRecorder) Gauge(name string, v float64) { r.gauges[name] = v }
func (r *racyRecorder) Flush() error                 { r.flushes++; return nil }

func TestNewFanInNil(t *testing.T) {
	if NewFanIn(nil) != nil {
		t.Fatal("NewFanIn(nil) must return nil so callers can pass it through")
	}
}

func TestFanInTagsRecords(t *testing.T) {
	inner := newRacyRecorder()
	fan := NewFanIn(inner)
	rec := fan.Tag("delta/w2/16")

	rec.Event(Event{Kind: KindChallenge, Cycle: 10, Core: 3})
	rec.Sample(Sample{Cycle: 20, Tile: 1, IPC: 0.5})
	rec.Count("core.challenges_sent", 7)
	rec.Gauge("bank00.fill", 0.9)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	if got := inner.events[0].Tag; got != "delta/w2/16" {
		t.Fatalf("event tag %q", got)
	}
	if got := inner.samples[0].Tag; got != "delta/w2/16" {
		t.Fatalf("sample tag %q", got)
	}
	if _, ok := inner.counters["delta/w2/16.core.challenges_sent"]; !ok {
		t.Fatalf("counter not prefixed: %v", inner.counters)
	}
	if _, ok := inner.gauges["delta/w2/16.bank00.fill"]; !ok {
		t.Fatalf("gauge not prefixed: %v", inner.gauges)
	}
	if inner.flushes != 1 {
		t.Fatalf("%d flushes", inner.flushes)
	}
}

func TestFanInEmptyTagPassesThrough(t *testing.T) {
	inner := newRacyRecorder()
	rec := NewFanIn(inner).Tag("")
	rec.Event(Event{Kind: KindChallenge})
	rec.Count("n", 1)
	if inner.events[0].Tag != "" {
		t.Fatalf("empty tag rewrote event: %+v", inner.events[0])
	}
	if _, ok := inner.counters["n"]; !ok {
		t.Fatalf("empty tag renamed counter: %v", inner.counters)
	}
}

// TestFanInSerializesConcurrentEmitters drives many tagged views at once into
// a recorder that is not thread-safe; run under -race this proves the FanIn
// mutex covers every delivery path.
func TestFanInSerializesConcurrentEmitters(t *testing.T) {
	inner := newRacyRecorder()
	fan := NewFanIn(inner)

	const emitters, each = 8, 200
	var wg sync.WaitGroup
	wg.Add(emitters)
	for e := 0; e < emitters; e++ {
		go func(e int) {
			defer wg.Done()
			rec := fan.Tag(tagName(e))
			for i := 0; i < each; i++ {
				rec.Event(Event{Kind: KindChallenge, Cycle: uint64(i)})
				rec.Sample(Sample{Cycle: uint64(i)})
				rec.Count("emitted", 1)
				rec.Gauge("last", float64(i))
			}
			_ = rec.Flush()
		}(e)
	}
	wg.Wait()

	if len(inner.events) != emitters*each {
		t.Fatalf("%d events, want %d", len(inner.events), emitters*each)
	}
	if len(inner.samples) != emitters*each {
		t.Fatalf("%d samples, want %d", len(inner.samples), emitters*each)
	}
	perTag := map[string]int{}
	for _, ev := range inner.events {
		perTag[ev.Tag]++
	}
	for e := 0; e < emitters; e++ {
		if perTag[tagName(e)] != each {
			t.Fatalf("tag %s delivered %d events, want %d", tagName(e), perTag[tagName(e)], each)
		}
		if inner.counters[tagName(e)+".emitted"] != each {
			t.Fatalf("counter for %s = %d", tagName(e), inner.counters[tagName(e)+".emitted"])
		}
	}
}

func tagName(e int) string {
	return "chip" + strings.Repeat("i", e+1)
}

// TestFanInJSONLSinkBytes pins the bytes of delta-served's -jsonl sink: one
// JSONL Stream behind a FanIn, each job emitting through a view tagged with
// its id. Events and samples carry the tag as a "tag" key; counters and
// gauges come out on Flush under "<tag>."-prefixed names.
func TestFanInJSONLSinkBytes(t *testing.T) {
	var buf bytes.Buffer
	fan := NewFanIn(NewJSONL(&buf))
	rec := fan.Tag("9f2c")
	rec.Event(Event{Cycle: 80000, Kind: KindCede, Core: 3, Bank: 2, Peer: 5, Ways: 2, GainFrom: 0.5, GainTo: 1.25})
	rec.Sample(Sample{Cycle: 16000, Tile: 0, IPC: 0.51, MPKI: 12.4, BankFill: 0.92, BankHitRate: 0.63})
	rec.Sample(Sample{Cycle: 16000, Tile: ChipWide, NoCLinkUtil: 0.0413, MCUQueue: 0.27})
	rec.Count("chip.llc_accesses", 197)
	rec.Gauge("bank03.fill", 0.971)
	if err := fan.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = `{"kind":"cede","tag":"9f2c","cycle":80000,"core":3,"bank":2,"peer":5,"ways":2,"gain_from":0.5,"gain_to":1.25}
{"kind":"quantum-sample","tag":"9f2c","cycle":16000,"tile":0,"ipc":0.51,"mpki":12.4,"fill":0.92,"hit_rate":0.63}
{"kind":"quantum-sample","tag":"9f2c","cycle":16000,"tile":-1,"noc_util":0.0413,"mcu_queue":0.27}
{"kind":"counter","name":"9f2c.chip.llc_accesses","value":197}
{"kind":"gauge","name":"9f2c.bank03.fill","value":0.971}
`
	if got := buf.String(); got != want {
		t.Fatalf("sink bytes moved\n got %s\nwant %s", got, want)
	}
}
