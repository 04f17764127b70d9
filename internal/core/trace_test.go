package core

import (
	"testing"

	"delta/internal/chip"
	"delta/internal/telemetry"
)

// TestTraceDeterministicAcrossRuns pins the telemetry determinism
// guarantee: events are emitted only from the chip's event queue, which
// orders callbacks by (cycle, schedule sequence), so identical
// configuration, workloads and seed yield an identical event sequence.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	run := func() []telemetry.Event {
		rec := telemetry.NewMemory(0)
		cfg := chip.DefaultConfig(16)
		cfg.Quantum = 500
		cfg.Recorder = rec
		c := chip.New(cfg, New(testParams()))
		// One hungry app among idle neighbours guarantees expansion events.
		c.SetWorkload(5, region(2048, 1), true)
		for i := 0; i < 16; i++ {
			if i != 5 {
				c.SetWorkload(i, region(128, uint64(i)+1), true)
			}
		}
		c.Run(150000, 100000)
		return rec.Events()
	}
	tele1, tele2 := run(), run()

	won := 0
	for _, ev := range tele1 {
		if ev.Kind == telemetry.KindChallengeResult && ev.Won {
			won++
		}
	}
	if won == 0 {
		t.Fatal("no won challenges recorded; the comparison is vacuous")
	}
	if len(tele1) != len(tele2) {
		t.Fatalf("telemetry event counts differ: %d vs %d", len(tele1), len(tele2))
	}
	for i := range tele1 {
		if tele1[i] != tele2[i] {
			t.Fatalf("telemetry event %d differs:\n  %+v\n  %+v", i, tele1[i], tele2[i])
		}
	}
}
