package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestEventRingBoundsAndOrder(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 10; i++ {
		r.Push(Event{Cycle: uint64(i)})
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("len=%d cap=%d, want 4/4", r.Len(), r.Cap())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped=%d, want 6", r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if ev.Cycle != uint64(6+i) {
			t.Fatalf("event %d cycle %d, want %d (oldest-first, newest retained)",
				i, ev.Cycle, 6+i)
		}
	}
}

func TestEventRingDefaultCap(t *testing.T) {
	if c := NewEventRing(-1).Cap(); c != DefaultEventCap {
		t.Fatalf("default cap %d, want %d", c, DefaultEventCap)
	}
	// NewMemory keeps the old "<= 0 means default" contract.
	if c := NewMemory(0).ring.Cap(); c != DefaultEventCap {
		t.Fatalf("NewMemory(0) ring cap %d, want %d", c, DefaultEventCap)
	}
}

// TestEventRingZeroCapDropsAll pins the capacity-0 contract: retain nothing,
// count every push as dropped, never panic.
func TestEventRingZeroCapDropsAll(t *testing.T) {
	r := NewEventRing(0)
	if r.Cap() != 0 {
		t.Fatalf("cap %d, want 0", r.Cap())
	}
	for i := 0; i < 5; i++ {
		r.Push(Event{Cycle: uint64(i)})
	}
	if r.Len() != 0 || len(r.Events()) != 0 {
		t.Fatalf("zero-cap ring retained events: len=%d", r.Len())
	}
	if r.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 5", r.Dropped())
	}
}

func TestMemoryRecorder(t *testing.T) {
	m := NewMemory(0)
	m.Event(Event{Kind: KindChallenge, Core: 1, Bank: 2})
	m.Event(Event{Kind: KindRetreat, Core: 3, Bank: 2})
	m.Sample(Sample{Cycle: 1000, Tile: 0, IPC: 1.5})
	m.Count("x", 2)
	m.Count("x", 3)
	m.Count("a", 1)
	m.Gauge("g", 0.5)
	m.Gauge("g", 0.75)

	if n := len(m.Events()); n != 2 {
		t.Fatalf("%d events, want 2", n)
	}
	if n := len(m.EventsOfKind(KindRetreat)); n != 1 {
		t.Fatalf("%d retreats, want 1", n)
	}
	if m.Counter("x") != 5 {
		t.Fatalf("counter x = %d, want 5", m.Counter("x"))
	}
	if v, ok := m.GaugeValue("g"); !ok || v != 0.75 {
		t.Fatalf("gauge g = %v,%v, want 0.75,true", v, ok)
	}
	if names := m.CounterNames(); len(names) != 2 || names[0] != "a" || names[1] != "x" {
		t.Fatalf("counter names %v, want sorted [a x]", names)
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestJSONLStreamEveryLineParses(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Event(Event{Cycle: 10, Kind: KindChallenge, Core: 1, Bank: 2, GainTo: 1.25})
	s.Event(Event{Cycle: 20, Kind: KindChallengeResult, Core: 1, Bank: 2, Won: false})
	s.Event(Event{Cycle: 30, Kind: KindRemap, Core: 4, Lines: 123})
	s.Sample(Sample{Cycle: 1000, Tile: 3, IPC: 0.5, MPKI: 12.25, BankFill: 0.875, BankHitRate: 0.5})
	s.Sample(Sample{Cycle: 1000, Tile: ChipWide, NoCLinkUtil: 0.01, MCUQueue: 2})
	s.Count("core.retreats", 7)
	s.Gauge("bank00.fill", 0.5)
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("%d lines, want 7:\n%s", len(lines), buf.String())
	}
	kinds := map[string]bool{}
	for i, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i, err, ln)
		}
		kind, _ := obj["kind"].(string)
		if kind == "" {
			t.Fatalf("line %d missing kind: %s", i, ln)
		}
		kinds[kind] = true
	}
	for _, want := range []string{"challenge", "challenge-result", "remap",
		"quantum-sample", "counter", "gauge"} {
		if !kinds[want] {
			t.Fatalf("kind %q missing from stream:\n%s", want, buf.String())
		}
	}
	// A lost challenge must still carry its verdict explicitly.
	if !strings.Contains(lines[1], `"won":false`) {
		t.Fatalf("challenge-result without won field: %s", lines[1])
	}
	if s.Lines() != 7 {
		t.Fatalf("Lines() = %d, want 7", s.Lines())
	}
}

func TestJSONLNonFiniteFloatsStayValid(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	inf := 1.0
	inf /= 0.0 // +Inf without tripping the compile-time division check
	s.Sample(Sample{Cycle: 1, Tile: 0, IPC: inf, MPKI: inf - inf})
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var obj map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &obj); err != nil {
		t.Fatalf("non-finite sample does not parse: %v\n%s", err, buf.String())
	}
	if obj["ipc"].(float64) != 0 || obj["mpki"].(float64) != 0 {
		t.Fatalf("non-finite floats should encode as 0: %s", buf.String())
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewMemory(0), NewMemory(0)
	m := NewMulti(a, b)
	m.Event(Event{Kind: KindRetreat})
	m.Count("n", 2)
	m.Gauge("g", 1)
	m.Sample(Sample{Cycle: 5})
	if err := m.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i, r := range []*Memory{a, b} {
		if len(r.Events()) != 1 || r.Counter("n") != 2 || len(r.Samples()) != 1 {
			t.Fatalf("recorder %d missed fan-out", i)
		}
	}
}

func TestNopIsInert(t *testing.T) {
	var n Nop
	n.Event(Event{})
	n.Sample(Sample{})
	n.Count("x", 1)
	n.Gauge("y", 2)
	if err := n.Flush(); err != nil {
		t.Fatalf("nop flush: %v", err)
	}
	if testing.AllocsPerRun(100, func() {
		n.Event(Event{Kind: KindRemap, Lines: 10})
		n.Count("x", 1)
	}) != 0 {
		t.Fatal("Nop recorder allocates")
	}
}
