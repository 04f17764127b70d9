package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"delta/internal/telemetry"
	"delta/internal/workloads"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 37
		var visits [n]atomic.Int32
		ForEach(workers, n, func(i int) { visits[i].Add(1) })
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachSequentialOrder(t *testing.T) {
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("order %v", order)
	}
}

// TestRunnerDeterminism is the engine's core guarantee: a parallel campaign
// is bit-identical to a sequential one, run for run. The parallel leg also
// carries a shared JSONL recorder, which the suite wraps in a FanIn, so
// -race exercises the concurrent telemetry path.
func TestRunnerDeterminism(t *testing.T) {
	sc := tinyScale()
	sc.Warmup = 30_000
	sc.Budget = 25_000
	policies, mixes := []string{"snuca", "delta"}, []string{"w2", "w6"}

	seq := NewSuite(sc, 16)
	seq.Prefetch(policies, mixes)

	psc := sc
	var buf bytes.Buffer
	psc.Recorder = telemetry.NewJSONL(&buf)
	psc.Workers = 4
	par := NewSuite(psc, 16)
	par.Prefetch(policies, mixes)

	for _, p := range policies {
		for _, m := range mixes {
			s, q := seq.Run(p, m), par.Run(p, m)
			if !reflect.DeepEqual(s, q) {
				t.Fatalf("%s/%s diverged between sequential and parallel runs:\nseq %+v\npar %+v",
					p, m, s, q)
			}
		}
	}
	if seq.Simulations() != 4 || par.Simulations() != 4 {
		t.Fatalf("simulations: seq %d, par %d, want 4 each", seq.Simulations(), par.Simulations())
	}
	if buf.Len() == 0 {
		t.Fatal("shared recorder received nothing from the parallel campaign")
	}
}

// TestSuiteSingleFlight hammers one (policy, mix) key from many goroutines:
// exactly one simulation may execute, and every caller sees its result.
func TestSuiteSingleFlight(t *testing.T) {
	sc := tinyScale()
	sc.Warmup = 30_000
	sc.Budget = 25_000
	st := NewSuite(sc, 16)

	const callers = 8
	runs := make([]MixRun, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			runs[i] = st.Run("delta", "w6")
		}(i)
	}
	wg.Wait()

	if got := st.Simulations(); got != 1 {
		t.Fatalf("%d simulations for one contended key, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(runs[0], runs[i]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
}

// TestSuitePrefetch checks the campaign entry point: the cross-product is
// simulated across workers exactly once, and later Run calls are cache hits.
func TestSuitePrefetch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sim prefetch is slow")
	}
	sc := tinyScale()
	sc.Warmup = 30_000
	sc.Budget = 25_000
	sc.Workers = 4
	st := NewSuite(sc, 16)

	policies, mixes := []string{"snuca", "private"}, []string{"w2", "w6"}
	st.Prefetch(policies, mixes)
	if got := st.Simulations(); got != 4 {
		t.Fatalf("%d simulations after prefetch, want 4", got)
	}
	st.Run("snuca", "w2")
	if got := st.Simulations(); got != 4 {
		t.Fatalf("Run after prefetch re-simulated: %d", got)
	}
}

// TestSuiteMatchesSequentialScale pins Suite results to a plain sequential
// RunMix at the same scale — the cache and single-flight layers must not
// perturb simulation output.
func TestSuiteMatchesSequentialScale(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := tinyScale()
	sc.Warmup = 30_000
	sc.Budget = 25_000

	direct := sc.RunMix("snuca", workloads.MixByName("w2"), 16)

	pst := NewSuite(sc, 16)
	pst.Scale.Workers = 4
	pst.Prefetch([]string{"snuca"}, []string{"w2"})
	viaSuite := pst.Run("snuca", "w2")

	if !reflect.DeepEqual(direct, viaSuite) {
		t.Fatal("suite run diverged from direct sequential run")
	}
}
