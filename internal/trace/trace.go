// Package trace generates the synthetic instruction/memory streams that
// stand in for the paper's SPEC CPU2006 pinballs and SPLASH2 runs (see
// DESIGN.md §3 for the substitution argument). A Generator produces a
// sequence of memory accesses, each annotated with the number of non-memory
// instructions dispatched since the previous access; the CPU model consumes
// that stream and produces timing.
//
// The generators are compositional: working-set regions model the hot data
// that makes an application cache-sensitive at a particular capacity,
// streaming walks model thrashing behaviour, mixtures weigh components, and
// phase schedules switch behaviour over time (what makes frequent
// reconfiguration in Fig. 13 pay off).
package trace

import (
	"fmt"

	"delta/internal/sim"
)

// Access is one memory reference emitted by a generator.
type Access struct {
	// Line is the line address (byte address >> 6) in the application's own
	// address space; the chip adds a per-core base.
	Line uint64
	// Write marks stores.
	Write bool
	// Gap is the number of non-memory instructions dispatched before this
	// access. Total instructions = sum(Gap) + number of accesses.
	Gap int
}

// Generator produces an access stream. Implementations must be deterministic
// given their seed.
type Generator interface {
	Next() Access
}

// LinesPerKB is a convenience: 16 lines of 64 B per KB.
const LinesPerKB = 1024 / 64

// Lines converts a size in kilobytes to lines.
func Lines(kb int) uint64 { return uint64(kb) * LinesPerKB }

// ---------------------------------------------------------------------------
// Region generator: uniform random over a working set.

// RegionGen accesses a fixed working set of Size lines uniformly at random.
// Under LRU a region smaller than the allocated capacity converges to ~100%
// hits; larger regions give a miss ratio that falls roughly linearly as
// capacity grows — the building block for cache-sensitive miss curves.
type RegionGen struct {
	Base uint64
	Size uint64
	rng  *sim.Rng
}

// NewRegionGen builds a region generator.
func NewRegionGen(base, sizeLines uint64, seed uint64) *RegionGen {
	if sizeLines == 0 {
		panic("trace: empty region")
	}
	return &RegionGen{Base: base, Size: sizeLines, rng: sim.NewRng(seed)}
}

// Next returns the next access with zero gap; wrap in a Shaper for pacing.
func (g *RegionGen) Next() Access {
	return Access{Line: g.Base + g.rng.Uint64n(g.Size)}
}

// ---------------------------------------------------------------------------
// Stream generator: sequential walk, the thrashing pattern.

// StreamGen walks sequentially through a region of Size lines and wraps.
// When Size far exceeds any plausible allocation, every access misses: the
// paper's "thrashing" class (bwaves, libquantum, milc).
type StreamGen struct {
	Base uint64
	Size uint64
	pos  uint64
}

// NewStreamGen builds a streaming generator.
func NewStreamGen(base, sizeLines uint64) *StreamGen {
	if sizeLines == 0 {
		panic("trace: empty stream")
	}
	return &StreamGen{Base: base, Size: sizeLines}
}

// Next returns the next sequential line.
func (g *StreamGen) Next() Access {
	a := Access{Line: g.Base + g.pos}
	g.pos++
	if g.pos == g.Size {
		g.pos = 0
	}
	return a
}

// ---------------------------------------------------------------------------
// Mixture generator: weighted composition.

// Component weighs a sub-generator within a mixture.
type Component struct {
	Gen    Generator
	Weight float64
}

// MixtureGen selects a component per access with probability proportional to
// weight. It is how an app model combines a hot small region, a warm larger
// region and a streaming tail to sculpt its miss curve.
type MixtureGen struct {
	comps []Component
	cum   []float64
	rng   *sim.Rng
}

// NewMixtureGen builds a mixture. Weights must be positive.
func NewMixtureGen(seed uint64, comps ...Component) *MixtureGen {
	if len(comps) == 0 {
		panic("trace: empty mixture")
	}
	g := &MixtureGen{comps: comps, rng: sim.NewRng(seed)}
	total := 0.0
	for _, c := range comps {
		if c.Weight <= 0 {
			panic(fmt.Sprintf("trace: non-positive weight %v", c.Weight))
		}
		total += c.Weight
	}
	run := 0.0
	for _, c := range comps {
		run += c.Weight / total
		g.cum = append(g.cum, run)
	}
	return g
}

// Next draws a component and returns its access.
func (g *MixtureGen) Next() Access {
	u := g.rng.Float64()
	for i, c := range g.cum {
		if u < c {
			return g.comps[i].Gen.Next()
		}
	}
	return g.comps[len(g.comps)-1].Gen.Next()
}

// ---------------------------------------------------------------------------
// Shaper: pacing, write ratio and MLP-inducing burstiness.

// ShaperConfig controls instruction pacing around the raw address stream.
type ShaperConfig struct {
	// MemFraction is the fraction of instructions that are memory accesses
	// (typically 0.25-0.40 for SPEC-like codes).
	MemFraction float64
	// WriteFraction is the fraction of accesses that are stores.
	WriteFraction float64
	// Burst is the mean number of accesses issued back-to-back (small gaps)
	// before a long gap; bursts of independent misses inside the ROB window
	// are what produce memory-level parallelism, so Burst is effectively the
	// app's target MLP.
	Burst float64
	// Seed for pacing decisions.
	Seed uint64
}

// Shaper wraps a Generator and annotates accesses with gaps and writes so
// the stream has the desired instruction mix and burstiness.
type Shaper struct {
	inner Generator
	cfg   ShaperConfig
	rng   *sim.Rng
	left  int // accesses remaining in the current burst

	// Derived from cfg once at construction.
	perAccess float64 // mean non-mem instructions per access: 1/MemFraction - 1
	burstP    float64 // geometric burst-length parameter: 1/Burst
}

// NewShaper validates the config and wraps gen.
func NewShaper(gen Generator, cfg ShaperConfig) *Shaper {
	if cfg.MemFraction <= 0 || cfg.MemFraction > 1 {
		panic(fmt.Sprintf("trace: MemFraction %v out of (0,1]", cfg.MemFraction))
	}
	if cfg.WriteFraction < 0 || cfg.WriteFraction > 1 {
		panic("trace: WriteFraction out of [0,1]")
	}
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	return &Shaper{
		inner:     gen,
		cfg:       cfg,
		rng:       sim.NewRng(cfg.Seed ^ 0xb5297a4d),
		perAccess: 1/cfg.MemFraction - 1,
		burstP:    1 / cfg.Burst,
	}
}

// Next produces the next paced access. The average instructions-per-access
// is 1/MemFraction; gaps inside a burst are minimal (accesses land close
// together in the ROB) and the slack is pushed into the inter-burst gap.
func (s *Shaper) Next() Access {
	a := s.inner.Next()
	a.Write = s.rng.Float64() < s.cfg.WriteFraction
	if s.left > 0 {
		s.left--
		a.Gap = 0
		return a
	}
	// Start a new burst: geometric length around the target.
	burstLen := 1 + s.rng.Geometric(s.burstP)
	s.left = burstLen - 1
	// The whole burst's non-mem budget is spent up front.
	gap := s.perAccess * float64(burstLen)
	a.Gap = int(gap)
	// Randomize the remainder to avoid lockstep artifacts.
	if frac := gap - float64(int(gap)); frac > 0 && s.rng.Float64() < frac {
		a.Gap++
	}
	return a
}

// ---------------------------------------------------------------------------
// Phase generator: behaviour changes over time.

// Phase pairs a generator with a duration in accesses.
type Phase struct {
	Gen      Generator
	Accesses uint64
}

// PhasedGen cycles through phases; it models program-phase behaviour, the
// reason frequent reconfiguration (Fig. 13) helps.
type PhasedGen struct {
	phases []Phase
	idx    int
	done   uint64
	// Cycles reports how many full passes over the phase list completed.
	Cycles uint64
}

// NewPhasedGen builds a phase schedule.
func NewPhasedGen(phases ...Phase) *PhasedGen {
	if len(phases) == 0 {
		panic("trace: empty phase list")
	}
	for _, p := range phases {
		if p.Accesses == 0 {
			panic("trace: zero-length phase")
		}
	}
	return &PhasedGen{phases: phases}
}

// Next returns the next access, advancing the phase schedule.
func (g *PhasedGen) Next() Access {
	p := g.phases[g.idx]
	if g.done >= p.Accesses {
		g.done = 0
		g.idx++
		if g.idx == len(g.phases) {
			g.idx = 0
			g.Cycles++
		}
		p = g.phases[g.idx]
	}
	g.done++
	return p.Gen.Next()
}

// ---------------------------------------------------------------------------
// Idle generator.

// IdleGen emits no memory traffic (gap-only accesses to a single line,
// effectively a compute-bound spin); used for idle-core scenarios where
// DELTA hands the whole bank to a challenger.
type IdleGen struct{}

// Next returns a rare access with an enormous gap.
func (IdleGen) Next() Access { return Access{Line: 0, Gap: 100000} }
