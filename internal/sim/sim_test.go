package sim

import (
	"testing"
	"testing/quick"
)

func TestRngDeterminism(t *testing.T) {
	a := NewRng(42)
	b := NewRng(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRngSeedsDiffer(t *testing.T) {
	a := NewRng(1)
	b := NewRng(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 0 and 1 produced %d/100 identical values", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRng(3)
	for _, n := range []int{1, 2, 3, 7, 16, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRng(1).Intn(0)
}

func TestUint64nUniformityCoarse(t *testing.T) {
	r := NewRng(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("bucket %d count %d far from %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRng(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRng(9)
	const p = 0.25
	sum := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / trials
	want := (1 - p) / p // 3.0
	if mean < want*0.9 || mean > want*1.1 {
		t.Fatalf("geometric mean %v, want ~%v", mean, want)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRng(13)
	dst := make([]int, 50)
	r.Perm(dst)
	seen := make(map[int]bool)
	for _, v := range dst {
		if v < 0 || v >= len(dst) || seen[v] {
			t.Fatalf("not a permutation: %v", dst)
		}
		seen[v] = true
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRng(17)
	const mean = 40.0
	sum := 0.0
	const trials = 20000
	for i := 0; i < trials; i++ {
		sum += r.Exponential(mean)
	}
	got := sum / trials
	if got < mean*0.9 || got > mean*1.1 {
		t.Fatalf("exponential mean %v, want ~%v", got, mean)
	}
}

// recordingQueue returns a queue whose Deliver appends each message's A
// field to *fired, in delivery order.
func recordingQueue(fired *[]int) *EventQueue {
	q := NewEventQueue()
	q.Deliver = func(m Msg, _ Cycle) { *fired = append(*fired, m.A) }
	return q
}

func TestEventQueueOrdering(t *testing.T) {
	var order []int
	q := recordingQueue(&order)
	q.ScheduleMsg(30, Msg{A: 3})
	q.ScheduleMsg(10, Msg{A: 1})
	q.ScheduleMsg(20, Msg{A: 2})
	q.RunUntil(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order %v", order)
	}
}

func TestEventQueueTieBreakFIFO(t *testing.T) {
	var order []int
	q := recordingQueue(&order)
	for i := 0; i < 10; i++ {
		q.ScheduleMsg(5, Msg{A: i})
	}
	q.RunUntil(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestEventQueueRunUntilBoundary(t *testing.T) {
	var fired []int
	q := recordingQueue(&fired)
	q.ScheduleMsg(10, Msg{})
	q.ScheduleMsg(11, Msg{})
	if n := q.RunUntil(10); n != 1 || len(fired) != 1 {
		t.Fatalf("RunUntil(10) fired %d events", len(fired))
	}
	if n := q.RunUntil(11); n != 1 || len(fired) != 2 {
		t.Fatalf("second RunUntil fired wrong count, total %d", len(fired))
	}
}

func TestEventQueueCascade(t *testing.T) {
	q := NewEventQueue()
	var order []string
	q.Deliver = func(m Msg, now Cycle) {
		order = append(order, m.Kind)
		if m.Kind == "a" {
			q.ScheduleMsg(now, Msg{Kind: "b"})
		}
	}
	q.ScheduleMsg(5, Msg{Kind: "a"})
	q.RunUntil(5)
	if len(order) != 2 || order[1] != "b" {
		t.Fatalf("cascaded event did not fire within RunUntil: %v", order)
	}
}

func TestEventQueueDrain(t *testing.T) {
	var fired []int
	q := recordingQueue(&fired)
	for i := 0; i < 5; i++ {
		q.ScheduleMsg(Cycle(1000*i), Msg{A: i})
	}
	if n := q.Drain(); n != 5 || len(fired) != 5 || q.Len() != 0 {
		t.Fatalf("drain fired %d, len %d", len(fired), q.Len())
	}
}

func TestTicker(t *testing.T) {
	tk := NewTicker(100, 50)
	if n := tk.Due(49); n != 0 {
		t.Fatalf("early firing: %d", n)
	}
	if n := tk.Due(50); n != 1 {
		t.Fatalf("missed first firing: %d", n)
	}
	if n := tk.Due(349); n != 2 { // 150, 250
		t.Fatalf("want 2 firings, got %d", n)
	}
	if got := tk.Next(); got != 350 {
		t.Fatalf("next = %d, want 350", got)
	}
}

func TestTickerPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTicker(0, 0)
}

// Property: RunUntil never fires an event scheduled after the horizon.
func TestEventQueueHorizonProperty(t *testing.T) {
	f := func(whens []uint16, horizon uint16) bool {
		var fired []int
		q := recordingQueue(&fired)
		for _, w := range whens {
			q.ScheduleMsg(Cycle(w), Msg{A: int(w)})
		}
		q.RunUntil(Cycle(horizon))
		for _, w := range fired {
			if w > int(horizon) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: events fire in nondecreasing When order.
func TestEventQueueMonotoneProperty(t *testing.T) {
	f := func(whens []uint16) bool {
		var fired []int
		q := recordingQueue(&fired)
		for _, w := range whens {
			q.ScheduleMsg(Cycle(w), Msg{A: int(w)})
		}
		q.Drain()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
