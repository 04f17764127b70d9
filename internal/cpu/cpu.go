// Package cpu implements an interval-style out-of-order core timing model in
// the spirit of Sniper's mechanistic core model (Carlson et al., ACM TACO
// 2014), the simulator the paper uses. The model dispatches instructions at a
// fixed width, hides short-latency memory accesses behind the pipeline, and
// groups long-latency accesses into overlap *epochs*: misses that issue
// within one reorder-buffer window of each other (and within the MSHR limit)
// proceed in parallel and cost one trip; a miss outside the window closes the
// epoch and serializes. This makes memory-level parallelism an emergent
// property of the access stream's burstiness — exactly the quantity DELTA's
// gain/pain formulas consume.
package cpu

import (
	"fmt"
	"math/bits"
)

// Config describes the core, with defaults from Table II.
type Config struct {
	DispatchWidth int    // instructions per cycle (4); a power of two
	ROBEntries    int    // overlap window in instructions (128)
	MSHRs         int    // maximum overlapping long-latency accesses (10)
	HideLatency   uint64 // latencies <= this are fully pipeline-hidden (L2 hit)
}

// DefaultConfig matches the paper's Nehalem-like configuration.
func DefaultConfig() Config {
	return Config{DispatchWidth: 4, ROBEntries: 128, MSHRs: 10, HideLatency: 12}
}

// Stats accumulates retired work and stall breakdowns.
type Stats struct {
	Instructions uint64
	MemAccesses  uint64
	LongMisses   uint64 // accesses that entered the epoch machinery
	Epochs       uint64 // serialized miss groups
	MissLatSum   uint64 // sum of individual long-access latencies
	MissStall    uint64 // cycles the core actually lost to long accesses
}

// Core is one tile's processor model. Not safe for concurrent use.
type Core struct {
	cfg Config
	// log2(DispatchWidth) and DispatchWidth-1: dispatch accounting on
	// every reference shifts and masks instead of dividing.
	widthLog  uint
	widthMask uint64

	cycle     uint64
	dispatchQ uint64 // sub-cycle dispatch budget, in instruction slots

	// Open overlap epoch.
	epochOpen  bool
	epochEnd   uint64
	epochCount int
	epochInstr uint64 // instruction index of the epoch's first miss

	Stats Stats

	// Interval snapshot state for per-epoch statistics.
	last Stats
}

// New builds a core. DispatchWidth must be a power of two (Table II's
// width is 4).
func New(cfg Config) *Core {
	w := cfg.DispatchWidth
	if w <= 0 || w&(w-1) != 0 || cfg.ROBEntries <= 0 || cfg.MSHRs <= 0 {
		panic(fmt.Sprintf("cpu: invalid config %+v", cfg))
	}
	return &Core{cfg: cfg, widthLog: uint(bits.TrailingZeros(uint(w))), widthMask: uint64(w - 1)}
}

// Cycle returns the core's local clock.
func (c *Core) Cycle() uint64 { return c.cycle }

// Instructions returns retired instructions.
func (c *Core) Instructions() uint64 { return c.Stats.Instructions }

// SetCycle fast-forwards the local clock (used when a core falls behind a
// quantum barrier or at simulation start for staggering).
func (c *Core) SetCycle(cy uint64) {
	if cy > c.cycle {
		c.cycle = cy
	}
}

// AdvanceNonMem retires n non-memory instructions at the dispatch width.
// n == 0, the gap inside a burst of accesses, changes nothing.
func (c *Core) AdvanceNonMem(n int) {
	if n < 0 {
		return
	}
	c.Stats.Instructions += uint64(n)
	c.dispatchQ += uint64(n)
	c.cycle += c.dispatchQ >> c.widthLog
	c.dispatchQ &= c.widthMask
}

// Memory retires one memory instruction whose total load-to-use latency is
// lat cycles. Short accesses are hidden by the pipeline; long accesses join
// or open an overlap epoch.
func (c *Core) Memory(lat uint64) {
	c.Stats.Instructions++
	c.Stats.MemAccesses++
	// The access consumes a dispatch slot like any instruction; the
	// queue only spills into the clock once it fills the dispatch width.
	c.dispatchQ++
	c.cycle += c.dispatchQ >> c.widthLog
	c.dispatchQ &= c.widthMask

	if lat <= c.cfg.HideLatency {
		return
	}
	c.Stats.LongMisses++
	c.Stats.MissLatSum += lat
	instr := c.Stats.Instructions
	if c.epochOpen &&
		instr-c.epochInstr <= uint64(c.cfg.ROBEntries) &&
		c.epochCount < c.cfg.MSHRs {
		// Overlaps with the in-flight epoch: extend the horizon, no stall.
		if end := c.cycle + lat; end > c.epochEnd {
			c.epochEnd = end
		}
		c.epochCount++
		return
	}
	// Serialize: wait out the previous epoch, then open a new one.
	c.closeEpoch()
	c.Stats.Epochs++
	c.epochOpen = true
	c.epochEnd = c.cycle + lat
	c.epochCount = 1
	c.epochInstr = instr
}

// closeEpoch charges the open epoch's remaining latency as stall.
func (c *Core) closeEpoch() {
	if !c.epochOpen {
		return
	}
	if c.epochEnd > c.cycle {
		c.Stats.MissStall += c.epochEnd - c.cycle
		c.cycle = c.epochEnd
	}
	c.epochOpen = false
	c.epochCount = 0
}

// Drain retires any in-flight epoch; call at quantum barriers and at the end
// of simulation so the clock reflects completed work.
func (c *Core) Drain() { c.closeEpoch() }

// IPC returns cumulative instructions per cycle.
func (c *Core) IPC() float64 {
	if c.cycle == 0 {
		return 0
	}
	return float64(c.Stats.Instructions) / float64(c.cycle)
}

// MLP returns the measured memory-level parallelism: the mean number of
// long-latency accesses resolved per overlap epoch (one serialized memory
// trip). It is the `m` term of the paper's Equations 1 and 2, bounded by the
// MSHR count. Cores with no misses report 1.
func (c *Core) MLP() float64 {
	if c.Stats.Epochs == 0 {
		return 1
	}
	mlp := float64(c.Stats.LongMisses) / float64(c.Stats.Epochs)
	if mlp < 1 {
		return 1
	}
	return mlp
}

// Interval reports the work done since the previous Interval call: retired
// instructions, memory accesses, long misses, and the interval MLP. Policies
// use it to normalize UMON counts into MPKI and to read fresh MLP.
type Interval struct {
	Instructions uint64
	MemAccesses  uint64
	LongMisses   uint64
	MLP          float64
}

// TakeInterval snapshots and resets the interval window.
func (c *Core) TakeInterval() Interval {
	cur := c.Stats
	iv := Interval{
		Instructions: cur.Instructions - c.last.Instructions,
		MemAccesses:  cur.MemAccesses - c.last.MemAccesses,
		LongMisses:   cur.LongMisses - c.last.LongMisses,
	}
	dEpochs := cur.Epochs - c.last.Epochs
	if dEpochs > 0 && iv.LongMisses > 0 {
		iv.MLP = float64(iv.LongMisses) / float64(dEpochs)
		if iv.MLP < 1 {
			iv.MLP = 1
		}
	} else {
		iv.MLP = 1
	}
	c.last = cur
	return iv
}
