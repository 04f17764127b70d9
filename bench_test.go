package delta

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (DESIGN.md §5). Each benchmark regenerates the
// experiment at a reduced scale per iteration, so `go test -bench=. -benchmem`
// exercises every reproduction path; `cmd/delta-bench` runs the full-scale
// versions that EXPERIMENTS.md records.

import (
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"delta/internal/central"
	"delta/internal/chip"
	"delta/internal/experiments"
	"delta/internal/telemetry"
	"delta/internal/telemetry/columnar"
	"delta/internal/workloads"
)

// benchScale trims windows so a single benchmark iteration stays in the
// seconds range.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Warmup = 60_000
	sc.Budget = 40_000
	return sc
}

// benchMixes is the subset swept by the per-figure benchmarks (the full 15
// mixes are the domain of cmd/delta-bench).
var benchMixes = []string{"w2", "w6", "w13"}

func runPolicyBench(b *testing.B, policy string, cores int) {
	sc := benchScale()
	if cores > 16 {
		sc = sc.For64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range benchMixes {
			sc.RunMix(policy, workloads.MixByName(m), cores)
		}
	}
}

// BenchmarkFig5Snuca16 measures the S-NUCA baseline runs behind Fig. 5.
func BenchmarkFig5Snuca16(b *testing.B) { runPolicyBench(b, "snuca", 16) }

// BenchmarkFig5Private16 measures the private baseline runs behind Fig. 5.
func BenchmarkFig5Private16(b *testing.B) { runPolicyBench(b, "private", 16) }

// BenchmarkFig5Delta16 measures the DELTA runs behind Fig. 5.
func BenchmarkFig5Delta16(b *testing.B) { runPolicyBench(b, "delta", 16) }

// BenchmarkFig5Ideal16 measures the ideal-centralized runs behind Fig. 5.
func BenchmarkFig5Ideal16(b *testing.B) { runPolicyBench(b, "ideal", 16) }

// BenchmarkFig6Fairness computes the ANTT/STP comparison of Fig. 6 on one
// mix (delta + ideal + private runs plus metric computation).
func BenchmarkFig6Fairness(b *testing.B) {
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := experiments.NewSuite(sc, 16)
		st.Run("private", "w2")
		st.Run("delta", "w2")
		st.Run("ideal", "w2")
	}
}

// BenchmarkFig7PerApp regenerates the per-application normalization of
// Fig. 7 (w2 on 16 cores).
func BenchmarkFig7PerApp(b *testing.B) {
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := experiments.NewSuite(sc, 16)
		experiments.PerApp(st, "w2")
	}
}

// BenchmarkFig8PerApp regenerates Fig. 8 (w3 on 16 cores).
func BenchmarkFig8PerApp(b *testing.B) {
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := experiments.NewSuite(sc, 16)
		experiments.PerApp(st, "w3")
	}
}

// BenchmarkFig9Delta64 measures the 64-core DELTA runs behind Fig. 9.
func BenchmarkFig9Delta64(b *testing.B) { runPolicyBench(b, "delta", 64) }

// BenchmarkFig10PerApp64 regenerates Fig. 10 (w2 on 64 cores).
func BenchmarkFig10PerApp64(b *testing.B) {
	sc := benchScale().For64()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := experiments.NewSuite(sc, 64)
		experiments.PerApp(st, "w2")
	}
}

// BenchmarkFig11PerApp64 regenerates Fig. 11 (w13 on 64 cores), the
// farsighted-over-allocation study.
func BenchmarkFig11PerApp64(b *testing.B) {
	sc := benchScale().For64()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := experiments.NewSuite(sc, 64)
		experiments.PerApp(st, "w13")
	}
}

// BenchmarkFig12Multithreaded runs one SPLASH2 profile through the
// multithreaded three-policy comparison of Fig. 12.
func BenchmarkFig12Multithreaded(b *testing.B) {
	sc := benchScale()
	app := workloads.Splash2ByName("fft")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = app.SharedApp(16, sc.Seed).PrivateRatios(5000)
		cfg := sc.ChipConfig(16)
		cfg.Multithreaded = true
		// One policy run (S-NUCA) exercises the multithreaded path.
		c := chip.New(cfg, sc.NewPolicy("snuca"))
		gens := app.ThreadGenerators(16, sc.Seed)
		for t, g := range gens {
			c.SetWorkload(t, g, false)
		}
		c.Run(sc.Warmup, sc.Budget)
	}
}

// BenchmarkFig13Frequency runs the fast-vs-slow reallocation comparison of
// Fig. 13 on one mix.
func BenchmarkFig13Frequency(b *testing.B) {
	sc := benchScale()
	m := workloads.MixByName("w5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.RunMix("ideal", m, 16)
		sc.RunMix("ideal-slow", m, 16)
	}
}

// BenchmarkTableVILookahead times the Lookahead allocator at 16 cores — the
// paper's Table VI datum (5.32 ms in their setup).
func BenchmarkTableVILookahead(b *testing.B) {
	curves := central.SyntheticCurves(16, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		central.Lookahead(curves, 256, 1, 256)
	}
}

// BenchmarkTableVIPeekahead times the Peekahead allocator at 16 cores.
func BenchmarkTableVIPeekahead(b *testing.B) {
	curves := central.SyntheticCurves(16, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		central.Peekahead(curves, 256, 1, 256)
	}
}

// BenchmarkTableVILookahead64 shows the growth to 64 cores (1230 ms in the
// paper's setup, three orders slower than DELTA's distributed computation).
func BenchmarkTableVILookahead64(b *testing.B) {
	curves := central.SyntheticCurves(64, 1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		central.Lookahead(curves, 1024, 1, 1024)
	}
}

// BenchmarkTelemetryOverhead compares a Fig. 5-style DELTA run with telemetry
// fully disabled (Recorder nil: the sampler never runs) against the same run
// through the no-op recorder (the full sampling/event path executes and
// discards). The ISSUE acceptance bound is <2% delta between the two;
// bench_results.txt records the measurements.
func BenchmarkTelemetryOverhead(b *testing.B) {
	mix := workloads.MixByName("w2")
	run := func(b *testing.B, rec telemetry.Recorder) {
		sc := benchScale()
		sc.Recorder = rec
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.RunMix("delta", mix, 16)
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("nop", func(b *testing.B) { run(b, telemetry.Nop{}) })
}

// BenchmarkColumnarSinkOverhead compares the same Fig. 5-style DELTA run
// through the no-op recorder against the columnar segment sink: the full
// sampling path executes in both, but the columnar case also delta-encodes,
// downsamples, checksums and writes every point. The ISSUE acceptance bound
// is <3% over nop; bench_results.txt records the measurements.
func BenchmarkColumnarSinkOverhead(b *testing.B) {
	mix := workloads.MixByName("w2")
	run := func(b *testing.B, mk func(i int) (telemetry.Recorder, func() error)) {
		sc := benchScale()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec, done := mk(i)
			sc.Recorder = rec
			sc.RunMix("delta", mix, 16)
			if err := done(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nop", func(b *testing.B) {
		run(b, func(int) (telemetry.Recorder, func() error) {
			return telemetry.Nop{}, func() error { return nil }
		})
	})
	b.Run("columnar", func(b *testing.B) {
		dir := b.TempDir()
		run(b, func(i int) (telemetry.Recorder, func() error) {
			w, err := columnar.NewWriter(columnar.Config{
				Dir: filepath.Join(dir, strconv.Itoa(i)), Job: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			return w, w.Close
		})
	})
}

// BenchmarkCampaign measures the parallel campaign engine: one fixed 8-run
// campaign (snuca + delta over four mixes, the independent unit the figure
// drivers fan out) prefetched into a fresh Suite at 1, 4 and 8 workers. The
// wall-clock ratio between the workers=1 and workers=4 sub-benchmarks is the
// speedup bench_results.txt records; results are bit-identical at every
// worker count.
func BenchmarkCampaign(b *testing.B) {
	policies := []string{"snuca", "delta"}
	mixes := []string{"w2", "w5", "w6", "w13"}
	campaign := func(b *testing.B, sc experiments.Scale) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.NewSuite(sc, 16).Prefetch(policies, mixes)
		}
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sc := benchScale()
			sc.Workers = workers
			campaign(b, sc)
		})
	}
	// The same sweep with analytical fast-forward replacing the simulated
	// warmup — the campaign configuration delta-bench exposes via
	// -fastforward. The gap against workers=N above is the warmup share of
	// campaign wall-clock.
	b.Run("fastforward/workers=4", func(b *testing.B) {
		sc := benchScale()
		sc.Workers = 4
		sc.FastForward = true
		campaign(b, sc)
	})
}

// BenchmarkOverheadsControlTraffic measures the run behind the Section
// IV-E2 message-overhead analysis.
func BenchmarkOverheadsControlTraffic(b *testing.B) {
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Overheads(sc, "w6")
	}
}
