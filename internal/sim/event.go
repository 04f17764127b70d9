package sim

import (
	"fmt"
	"math"
	"sort"
)

// mathLog exists so rng.go does not import math directly in its hot path
// documentation; it is the plain natural logarithm.
func mathLog(x float64) float64 { return math.Log(x) }

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle = uint64

// Event is one slot of the queue's arena: a due cycle plus the reified
// message delivered through the queue's Deliver handler. Events fire in
// cycle order; ties are broken by insertion order so the simulation stays
// deterministic.
type Event struct {
	When Cycle
	seq  uint64
	msg  Msg
}

// Msg is a reified control message: the serializable payload an in-flight
// event is rebuilt from after a checkpoint/restore. Field meanings are
// per-Kind conventions owned by the scheduling policy; FBits carries a
// float64 as IEEE-754 bits so ±Inf and exact values survive JSON.
type Msg struct {
	Kind  string `json:"kind"`
	A     int    `json:"a,omitempty"`
	B     int    `json:"b,omitempty"`
	C     int    `json:"c,omitempty"`
	FBits uint64 `json:"f_bits,omitempty"`
	Flag  bool   `json:"flag,omitempty"`
}

// MsgNoop is the Kind of a message whose delivery has no semantic effect: it
// exists only to account for NoC control traffic. The chip's handler drops it
// without consulting the policy.
const MsgNoop = "noop"

// PendingEvent is one in-flight event in serializable form: its due cycle,
// its exact sequence number (the deterministic tie-breaker), and the message
// payload to redeliver on restore.
type PendingEvent struct {
	When Cycle  `json:"when"`
	Seq  uint64 `json:"seq"`
	Msg  Msg    `json:"msg"`
}

// EventQueue is a deterministic min-heap of events keyed by (cycle, sequence).
// It is the spine of the chip's message-delivery and reconfiguration
// machinery. Not safe for concurrent use.
//
// Storage is an arena: events live in a reusable slab indexed by the heap,
// with popped slots recycled through a freelist, so steady-state scheduling
// allocates nothing. Message events carry no closure — they are dispatched
// through the queue-wide Deliver handler bound once at construction — which
// is what lets ScheduleMsg stay allocation-free and lets Restore rebuild
// in-flight traffic without a per-event bind.
type EventQueue struct {
	slab []Event // arena; heap and freelist hold indices into it
	free []int32 // recycled slab slots
	heap []int32 // index min-heap ordered by slab (When, seq)
	seq  uint64

	// Deliver receives every message event when it fires (including
	// MsgNoop — dropping accounting-only traffic is the handler's call).
	// It must be set before the first message event fires.
	Deliver func(m Msg, now Cycle)
}

// NewEventQueue returns an empty queue. The zero value is also ready to use.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// alloc places ev in a free slab slot and returns its index.
func (q *EventQueue) alloc(ev Event) int32 {
	if n := len(q.free); n > 0 {
		id := q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[id] = ev
		return id
	}
	q.slab = append(q.slab, ev)
	return int32(len(q.slab) - 1)
}

// less orders two slab entries by (When, seq).
func (q *EventQueue) less(a, b int32) bool {
	ea, eb := &q.slab[a], &q.slab[b]
	if ea.When != eb.When {
		return ea.When < eb.When
	}
	return ea.seq < eb.seq
}

func (q *EventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *EventQueue) siftDown(i int) {
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && q.less(q.heap[r], q.heap[l]) {
			least = r
		}
		if !q.less(q.heap[least], q.heap[i]) {
			break
		}
		q.heap[i], q.heap[least] = q.heap[least], q.heap[i]
		i = least
	}
}

// push enqueues a slab entry.
func (q *EventQueue) push(ev Event) {
	id := q.alloc(ev)
	q.heap = append(q.heap, id)
	q.siftUp(len(q.heap) - 1)
}

// popRoot removes the heap minimum, recycles its slot, and returns the event
// by value (the slab entry is zeroed so message references are released
// immediately).
func (q *EventQueue) popRoot() Event {
	id := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0)
	}
	ev := q.slab[id]
	q.slab[id] = Event{}
	q.free = append(q.free, id)
	return ev
}

// ScheduleMsg enqueues a message for delivery at cycle when through the
// queue's Deliver handler. No closure is bound, so scheduling steady-state
// traffic performs no allocation, and the event serializes via Pending.
func (q *EventQueue) ScheduleMsg(when Cycle, m Msg) {
	q.seq++
	q.push(Event{When: when, seq: q.seq, msg: m})
}

// Pending returns every in-flight event in deterministic (When, seq) order
// without disturbing the queue.
func (q *EventQueue) Pending() []PendingEvent {
	out := make([]PendingEvent, 0, len(q.heap))
	for _, id := range q.heap {
		ev := &q.slab[id]
		out = append(out, PendingEvent{When: ev.When, Seq: ev.seq, Msg: ev.msg})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].When != out[j].When {
			return out[i].When < out[j].When
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Restore discards the queue's current contents and rebuilds it from pending
// events; each fires through the Deliver handler at its recorded cycle.
// Sequence numbers are preserved verbatim so tie-breaking is bit-identical to
// the original run; the internal counter resumes past the largest restored
// value so new events order after the restored ones.
func (q *EventQueue) Restore(pending []PendingEvent) {
	q.slab = q.slab[:0]
	q.free = q.free[:0]
	q.heap = q.heap[:0]
	q.seq = 0
	for _, pe := range pending {
		q.slab = append(q.slab, Event{When: pe.When, seq: pe.Seq, msg: pe.Msg})
		q.heap = append(q.heap, int32(len(q.slab)-1))
		if pe.Seq > q.seq {
			q.seq = pe.Seq
		}
	}
	for i := len(q.heap)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return len(q.heap) }

// fire dispatches one popped event.
func (q *EventQueue) fire(ev Event) {
	if q.Deliver == nil {
		panic(fmt.Sprintf("sim: message event %q fired with no Deliver handler bound", ev.msg.Kind))
	}
	q.Deliver(ev.msg, ev.When)
}

// RunUntil fires, in order, every event with When <= now. Events scheduled by
// handlers at cycles <= now also fire before RunUntil returns.
func (q *EventQueue) RunUntil(now Cycle) int {
	fired := 0
	for len(q.heap) > 0 && q.slab[q.heap[0]].When <= now {
		q.fire(q.popRoot())
		fired++
	}
	return fired
}

// Drain fires every pending event in order regardless of time; used at the
// end of a simulation so in-flight control messages settle.
func (q *EventQueue) Drain() int {
	fired := 0
	for len(q.heap) > 0 {
		q.fire(q.popRoot())
		fired++
	}
	return fired
}

// Ticker fires at a fixed period, with an optional phase offset so that
// per-tile reconfiguration epochs are staggered (DELTA is asynchronous by
// design; tiles must not all reconfigure on the same cycle).
type Ticker struct {
	Period Cycle
	next   Cycle
}

// NewTicker returns a ticker whose first firing is at offset, then every
// period cycles after that. Period must be non-zero.
func NewTicker(period, offset Cycle) *Ticker {
	if period == 0 {
		panic("sim: zero ticker period")
	}
	return &Ticker{Period: period, next: offset}
}

// Due reports how many periods have elapsed up to and including now, and
// advances the ticker past them. A caller that polls every quantum receives
// each firing exactly once.
func (t *Ticker) Due(now Cycle) int {
	n := 0
	for t.next <= now {
		t.next += t.Period
		n++
	}
	return n
}

// Next returns the cycle of the next firing.
func (t *Ticker) Next() Cycle { return t.next }

// Reset re-arms the ticker to first fire at the given cycle.
func (t *Ticker) Reset(at Cycle) { t.next = at }
