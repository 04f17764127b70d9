package chip

// Hot-path microbenchmarks. BenchmarkAccessPath times the full per-reference
// path of Chip.access (L1/L2 lookups, UMON, bank routing, LLC lookup/insert,
// directory update) on a single chip; bench_results.txt records the effect of
// the markSharer duplicate-set-walk fix on this number.

import (
	"path/filepath"
	"strconv"
	"testing"

	"delta/internal/telemetry"
	"delta/internal/telemetry/columnar"
	"delta/internal/trace"
)

// benchGen builds one core's access generator. The workloads package can't
// be imported here (it imports chip), so mixtures are assembled directly from
// trace primitives: "mixed" approximates a Table IV mix (hot region + warm
// region + streaming tail); "llc" uses a working set far beyond the private
// L2 so essentially every reference exercises the LLC bank path; "l2" models
// the L2-resident applications (sjeng, namd and zeusmp: 64, 80 and 96 KB
// uniform working sets with their pacing and write shares) whose cores keep
// running after their windows close and then issue most of a Fig. 5 run's
// references, nearly all served by the private L1/L2 step.
func benchGen(kind string, i int) trace.Generator {
	seed := uint64(i)*7919 + 17
	switch kind {
	case "llc":
		return trace.NewRegionGen(0, trace.Lines(4096), seed+1)
	case "l2":
		app := [...]struct {
			kb                int
			mem, write, burst float64
		}{{64, 0.25, 0.2, 2}, {80, 0.30, 0.15, 3}, {96, 0.28, 0.25, 3}}[i%3]
		return trace.NewShaper(trace.NewRegionGen(0, trace.Lines(app.kb), seed+1),
			trace.ShaperConfig{MemFraction: app.mem, WriteFraction: app.write, Burst: app.burst, Seed: seed})
	}
	return trace.NewMixtureGen(seed,
		trace.Component{Gen: trace.NewRegionGen(0, trace.Lines(64), seed+1), Weight: 0.5},
		trace.Component{Gen: trace.NewRegionGen(trace.Lines(64), trace.Lines(2048), seed+2), Weight: 0.3},
		trace.Component{Gen: trace.NewStreamGen(trace.Lines(4096), trace.Lines(16384)), Weight: 0.2},
	)
}

// benchChip builds a 16-core chip with one generator per core, ready to
// drive accesses.
func benchChip(policy Policy, kind string) *Chip {
	cfg := DefaultConfig(16)
	cfg.UmonSampleEvery = 4
	c := New(cfg, policy)
	for i := 0; i < 16; i++ {
		c.SetWorkload(i, benchGen(kind, i), true)
	}
	return c
}

// BenchmarkAccessPath measures ns per memory reference through Chip.access,
// round-robin over all 16 cores so every flavor of the path (local/remote
// bank, hit/miss, partitioned insert) is exercised at its natural frequency.
func BenchmarkAccessPath(b *testing.B) {
	for _, pol := range []struct {
		name string
		kind string
		mk   func() Policy
	}{
		{"snuca-mixed", "mixed", func() Policy { return NewSnuca() }},
		{"private-mixed", "mixed", func() Policy { return NewPrivate() }},
		{"snuca-llc", "llc", func() Policy { return NewSnuca() }},
		{"private-llc", "llc", func() Policy { return NewPrivate() }},
		{"snuca-l2", "l2", func() Policy { return NewSnuca() }},
	} {
		b.Run(pol.name, func(b *testing.B) {
			c := benchChip(pol.mk(), pol.kind)
			lat := c.privateLatencies()
			// Warm the hierarchy so steady-state hits dominate as in a real
			// run, then time the access path itself.
			for i := 0; i < 200_000; i++ {
				core := i & 15
				t := c.Tiles[core]
				acc := t.gen.Next()
				c.access(core, t, &lat, t.base+acc.Line, acc.Write)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core := i & 15
				t := c.Tiles[core]
				acc := t.gen.Next()
				c.access(core, t, &lat, t.base+acc.Line, acc.Write)
			}
		})
	}
}

// BenchmarkChipRun measures a whole single-chip Run at a compressed scale —
// the unit the parallel campaign engine fans out — on the fast-forward path:
// analytical seeding replaces the simulated warmup, so the run spends its
// cycles on the measured window. BenchmarkChipRunWarm keeps the simulated
// warmup for comparison; bench_results.txt tracks both.
func BenchmarkChipRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := benchChip(NewSnuca(), "mixed")
		c.FastForward(30_000)
		c.Run(30_000, 20_000)
	}
}

// BenchmarkChipNew measures building a 64-core chip at the facade's UMON
// sampling (one set in four): the per-tile state every 64-core run pays
// before its first access. scripts/bench_regression.sh gates its B/op so
// shadow-tag or cache storage that is provisioned eagerly again fails CI.
func BenchmarkChipNew(b *testing.B) {
	cfg := DefaultConfig(64)
	cfg.UmonSampleEvery = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(cfg, NewSnuca())
	}
}

// BenchmarkChipNew16 is BenchmarkChipNew at 16 cores, the scale of the
// Fig. 5 runs, where the cache slabs rather than the UMON dominate the
// per-tile state. scripts/bench_regression.sh gates its B/op so directory
// words creeping back into every cache line fail CI.
func BenchmarkChipNew16(b *testing.B) {
	cfg := DefaultConfig(16)
	cfg.UmonSampleEvery = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(cfg, NewSnuca())
	}
}

// BenchmarkChipNewReleased16 is BenchmarkChipNew16 with every chip released
// after it is built, the lifecycle of a service worker's jobs: each New
// draws the previous chip's cache and UMON arrays from the slab free list,
// so what it allocates is only the state outside those arrays.
// scripts/bench_regression.sh gates its B/op at a small fraction of
// BenchmarkChipNew16's, so a lost Release or a free list that stops
// recycling fails CI.
func BenchmarkChipNewReleased16(b *testing.B) {
	cfg := DefaultConfig(16)
	cfg.UmonSampleEvery = 4
	New(cfg, NewSnuca()).Release() // stock the free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(cfg, NewSnuca()).Release()
	}
}

// BenchmarkFastForward16 times FastForward alone on a fresh 16-core chip at
// the default warmup, where every tile's prefill is capped by its private
// plus LLC-share budget; building and releasing the chip are off the clock.
// scripts/bench_regression.sh gates its B/op: one scratch per call, so a
// hot-line list, dedupe set or placement array rebuilt per tile fails CI.
func BenchmarkFastForward16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := benchChip(NewSnuca(), "mixed")
		b.StartTimer()
		c.FastForward(400_000)
		b.StopTimer()
		c.Release()
		b.StartTimer()
	}
}

// BenchmarkChipRunWarm is the same run with the warmup simulated
// instruction-by-instruction (the pre-fast-forward behaviour).
func BenchmarkChipRunWarm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := benchChip(NewSnuca(), "mixed")
		c.Run(30_000, 20_000)
	}
}

// BenchmarkChipRunColumnar is BenchmarkChipRun with its telemetry streamed
// into a columnar segment sink, against the same run through the no-op
// recorder. The recorder only runs at quantum boundaries, so the ISSUE
// acceptance bound is <3% over nop; bench_results.txt records the numbers.
func BenchmarkChipRunColumnar(b *testing.B) {
	run := func(b *testing.B, mk func(i int) telemetry.Recorder) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := DefaultConfig(16)
			cfg.UmonSampleEvery = 4
			cfg.Recorder = mk(i)
			c := New(cfg, NewSnuca())
			for j := 0; j < 16; j++ {
				c.SetWorkload(j, benchGen("mixed", j), true)
			}
			c.Run(30_000, 20_000)
		}
	}
	b.Run("nop", func(b *testing.B) {
		run(b, func(int) telemetry.Recorder { return telemetry.Nop{} })
	})
	b.Run("columnar", func(b *testing.B) {
		dir := b.TempDir()
		run(b, func(i int) telemetry.Recorder {
			w, err := columnar.NewWriter(columnar.Config{
				Dir: filepath.Join(dir, strconv.Itoa(i)), Job: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = w.Close() })
			return w
		})
	})
}

// BenchmarkChipRunChecked is the same Run with the invariant sweep armed;
// the pair quantifies both sides of the Config.Check contract: disabled-mode
// cost must stay within noise of the pre-harness baseline (the call sites
// are a single branch) and the enabled sweep is expected to be
// sanitizer-class, not free. Numbers in bench_results.txt.
func BenchmarkChipRunChecked(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(16)
		cfg.UmonSampleEvery = 4
		cfg.Check = true
		c := New(cfg, NewSnuca())
		for j := 0; j < 16; j++ {
			c.SetWorkload(j, benchGen("mixed", j), true)
		}
		c.Run(30_000, 20_000)
	}
}
