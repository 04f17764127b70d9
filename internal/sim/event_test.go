package sim

import (
	"testing"
)

func TestPendingRestoreRoundTrip(t *testing.T) {
	var q EventQueue
	q.ScheduleMsg(20, Msg{Kind: "delta.gain", A: 3, B: 1, FBits: 42})
	q.ScheduleMsg(10, Msg{Kind: MsgNoop})
	q.ScheduleMsg(20, Msg{Kind: "delta.retreat", A: 7})
	pending := q.Pending()
	if len(pending) != 3 {
		t.Fatalf("%d pending events", len(pending))
	}
	// Sorted by (when, seq): the noop at cycle 10 first, then the two
	// cycle-20 events in scheduling order.
	if pending[0].Msg.Kind != MsgNoop || pending[1].Msg.Kind != "delta.gain" || pending[2].Msg.Kind != "delta.retreat" {
		t.Fatalf("pending order %+v", pending)
	}

	var q2 EventQueue
	var got []Msg
	q2.Deliver = func(m Msg, _ Cycle) { got = append(got, m) }
	q2.Restore(pending)
	q2.RunUntil(30)
	if len(got) != 3 {
		t.Fatalf("%d delivered", len(got))
	}
	if got[0].Kind != MsgNoop || got[1].Kind != "delta.gain" || got[2].Kind != "delta.retreat" {
		t.Fatalf("restored delivery order %+v", got)
	}
	if got[1].A != 3 || got[1].B != 1 || got[1].FBits != 42 {
		t.Fatalf("payload lost: %+v", got[1])
	}

	// New events scheduled after a restore must sequence after the restored
	// ones, even at equal timestamps.
	var q3 EventQueue
	q3.Deliver = func(Msg, Cycle) {}
	q3.Restore(pending)
	q3.ScheduleMsg(20, Msg{Kind: "late"})
	p := q3.Pending()
	if len(p) != 4 {
		t.Fatalf("pending after restore+schedule: %d events", len(p))
	}
	if p[3].Msg.Kind != "late" || p[3].Seq <= pending[2].Seq {
		t.Fatalf("late event did not sequence after restored ones: %+v", p)
	}
}

// TestScheduleMsgSteadyStateAllocFree pins the arena contract: once the slab
// and heap have grown to the workload's high-water mark, a
// schedule-and-deliver cycle reuses freelist slots and must not allocate.
func TestScheduleMsgSteadyStateAllocFree(t *testing.T) {
	var q EventQueue
	q.Deliver = func(Msg, Cycle) {}
	// Grow the arena to its steady-state footprint.
	for i := Cycle(0); i < 64; i++ {
		q.ScheduleMsg(i, Msg{Kind: MsgNoop, A: int(i)})
	}
	q.RunUntil(64)
	now := Cycle(100)
	allocs := testing.AllocsPerRun(200, func() {
		for i := Cycle(0); i < 64; i++ {
			q.ScheduleMsg(now+i, Msg{Kind: MsgNoop, A: int(i)})
		}
		q.RunUntil(now + 64)
		now += 100
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/deliver allocates %.1f times per round, want 0", allocs)
	}
}
