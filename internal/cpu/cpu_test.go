package cpu

import (
	"testing"
	"testing/quick"
)

func TestDispatchWidth(t *testing.T) {
	c := New(DefaultConfig())
	c.AdvanceNonMem(400)
	if c.Cycle() != 100 {
		t.Fatalf("400 instructions took %d cycles, want 100", c.Cycle())
	}
	if c.IPC() != 4 {
		t.Fatalf("IPC %v", c.IPC())
	}
}

func TestFractionalDispatchAccumulates(t *testing.T) {
	c := New(DefaultConfig())
	for i := 0; i < 7; i++ {
		c.AdvanceNonMem(1)
	}
	if c.Cycle() != 1 {
		t.Fatalf("7 instructions took %d cycles, want 1", c.Cycle())
	}
	c.AdvanceNonMem(1)
	if c.Cycle() != 2 {
		t.Fatalf("8 instructions took %d cycles, want 2", c.Cycle())
	}
}

func TestShortLatencyHidden(t *testing.T) {
	c := New(DefaultConfig())
	for i := 0; i < 400; i++ {
		c.Memory(6) // L2 hit
	}
	c.Drain()
	if c.Cycle() != 100 {
		t.Fatalf("hidden accesses took %d cycles, want 100", c.Cycle())
	}
	if c.Stats.LongMisses != 0 {
		t.Fatal("short accesses counted as misses")
	}
}

func TestSerializedMisses(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// Misses separated by more than the ROB window serialize fully.
	for i := 0; i < 10; i++ {
		c.AdvanceNonMem(cfg.ROBEntries + 10)
		c.Memory(400)
	}
	c.Drain()
	if c.Stats.Epochs != 10 {
		t.Fatalf("epochs = %d, want 10", c.Stats.Epochs)
	}
	if got := c.MLP(); got < 0.99 || got > 1.01 {
		t.Fatalf("serialized MLP %v, want 1", got)
	}
	// Each epoch stalls ~400 cycles minus the ~35 cycles of dispatch work
	// between misses that the OOO window hides.
	if c.Stats.MissStall < 10*350 {
		t.Fatalf("stall %d too small", c.Stats.MissStall)
	}
}

func TestOverlappedMisses(t *testing.T) {
	c := New(DefaultConfig())
	// Bursts of 4 misses back-to-back inside the ROB window overlap.
	for burst := 0; burst < 20; burst++ {
		for j := 0; j < 4; j++ {
			c.Memory(400)
		}
		c.AdvanceNonMem(1000) // close the window between bursts
	}
	c.Drain()
	if c.Stats.Epochs != 20 {
		t.Fatalf("epochs = %d, want 20", c.Stats.Epochs)
	}
	mlp := c.MLP()
	if mlp < 3.5 || mlp > 4.5 {
		t.Fatalf("burst-4 MLP = %v, want ~4", mlp)
	}
}

func TestMSHRLimitCapsOverlap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 2
	c := New(cfg)
	for burst := 0; burst < 10; burst++ {
		for j := 0; j < 6; j++ {
			c.Memory(400)
		}
		c.AdvanceNonMem(2000)
	}
	c.Drain()
	if mlp := c.MLP(); mlp > 2.5 {
		t.Fatalf("MLP %v exceeds MSHR bound", mlp)
	}
}

func TestROBWindowLimitsOverlap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBEntries = 16
	c := New(cfg)
	// Misses 20 instructions apart cannot share a 16-entry window.
	for i := 0; i < 50; i++ {
		c.AdvanceNonMem(20)
		c.Memory(400)
	}
	c.Drain()
	if got := c.MLP(); got > 1.2 {
		t.Fatalf("ROB-separated MLP %v, want ~1", got)
	}
}

func TestDrainIdempotent(t *testing.T) {
	c := New(DefaultConfig())
	c.Memory(400)
	c.Drain()
	cy := c.Cycle()
	c.Drain()
	if c.Cycle() != cy {
		t.Fatal("second drain advanced clock")
	}
}

func TestSetCycleOnlyForward(t *testing.T) {
	c := New(DefaultConfig())
	c.SetCycle(100)
	c.SetCycle(50)
	if c.Cycle() != 100 {
		t.Fatalf("cycle %d", c.Cycle())
	}
}

func TestTakeInterval(t *testing.T) {
	c := New(DefaultConfig())
	c.AdvanceNonMem(1000)
	c.Memory(400)
	c.Drain()
	iv := c.TakeInterval()
	if iv.Instructions != 1001 || iv.LongMisses != 1 {
		t.Fatalf("interval %+v", iv)
	}
	iv2 := c.TakeInterval()
	if iv2.Instructions != 0 || iv2.LongMisses != 0 {
		t.Fatalf("window did not reset: %+v", iv2)
	}
	if iv2.MLP != 1 {
		t.Fatalf("idle interval MLP %v", iv2.MLP)
	}
}

func TestIPCDegradesWithMisses(t *testing.T) {
	mk := func(missEvery int) float64 {
		c := New(DefaultConfig())
		for i := 0; i < 200; i++ {
			c.AdvanceNonMem(missEvery)
			c.Memory(400)
		}
		c.Drain()
		return c.IPC()
	}
	sparse, dense := mk(2000), mk(200)
	if dense >= sparse {
		t.Fatalf("denser misses should hurt IPC: dense %v vs sparse %v", dense, sparse)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{DispatchWidth: 0, ROBEntries: 1, MSHRs: 1})
}

// Dispatch accounting shifts and masks by the width, so a width that is not
// a power of two is rejected rather than mis-timed.
func TestNewPanicsOnNonPowerOfTwoWidth(t *testing.T) {
	for _, w := range []int{3, 5, 6, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("dispatch width %d: expected panic", w)
				}
			}()
			New(Config{DispatchWidth: w, ROBEntries: 1, MSHRs: 1})
		}()
	}
	for _, w := range []int{1, 2, 4, 8} {
		New(Config{DispatchWidth: w, ROBEntries: 1, MSHRs: 1})
	}
}

// Property: the clock never runs backwards and instructions are conserved.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(DefaultConfig())
		var instr uint64
		prev := uint64(0)
		for _, op := range ops {
			if op%3 == 0 {
				n := int(op%50) + 1
				c.AdvanceNonMem(n)
				instr += uint64(n)
			} else {
				c.Memory(uint64(op % 500))
				instr++
			}
			if c.Cycle() < prev {
				return false
			}
			prev = c.Cycle()
		}
		c.Drain()
		return c.Stats.Instructions == instr && c.Cycle() >= prev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MLP is always within [1, MSHRs].
func TestMLPBoundsProperty(t *testing.T) {
	f := func(seed []uint16) bool {
		cfg := DefaultConfig()
		c := New(cfg)
		for _, s := range seed {
			c.AdvanceNonMem(int(s % 300))
			c.Memory(uint64(s%600) + 1)
		}
		c.Drain()
		mlp := c.MLP()
		return mlp >= 1 && mlp <= float64(cfg.MSHRs)+0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
