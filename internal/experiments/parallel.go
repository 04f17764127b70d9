package experiments

// The parallel campaign engine. Reproducing the paper's evaluation means
// hundreds of fully independent chip simulations (4 policies x 15 mixes x 2
// chip sizes, plus SPLASH2 and the ablation sweeps); a single simulation is
// inherently serial (one chip, one loosely synchronized clock), so campaign
// throughput comes from running whole chips in parallel. Every chip owns all
// of its mutable state — caches, cores, NoC and MCU counters, and its seeded
// RNG streams — so fanning runs across a worker pool is deterministic:
// parallel results are bit-identical to sequential ones (test-enforced by
// TestRunnerDeterminism). The only shared object is an optional
// telemetry.Recorder, which the engine wraps in a telemetry.FanIn.

import (
	"sync"
	"sync/atomic"

	"delta/internal/telemetry"
	"delta/internal/workloads"
)

// ForEach invokes fn(i) for every i in [0, n) across at most workers
// goroutines and waits for all of them. workers <= 1 runs inline and in
// order; otherwise iterations are claimed from a shared counter, so fn must
// only write state disjoint per index (the campaign drivers write results[i]
// and nothing else).
func ForEach(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Suite runs and caches (policy, mix) simulations for one chip size so that
// Fig. 5/6/7/8 (and 9/10/11) share runs instead of recomputing them. It is
// safe for concurrent use: Run calls for the same key collapse into exactly
// one simulation (per-key single-flight), so parallel campaign drivers never
// duplicate a run however they contend.
type Suite struct {
	Scale Scale
	Cores int

	mu    sync.Mutex
	cache map[suiteKey]*suiteEntry
	sims  atomic.Uint64

	// fan serializes a shared recorder across concurrent runs; created once
	// per suite so every run contends on the same mutex.
	fanOnce sync.Once
	fan     *telemetry.FanIn
}

// fanIn returns the suite's shared recorder wrapper (nil when the campaign
// is sequential or no recorder is attached).
func (st *Suite) fanIn() *telemetry.FanIn {
	st.fanOnce.Do(func() { st.fan = st.Scale.fanIn() })
	return st.fan
}

type suiteKey struct{ policy, mix string }

// suiteEntry is one key's single-flight slot: the first Run claims the Once
// and simulates; contenders block in Do until the result is published.
type suiteEntry struct {
	once sync.Once
	run  MixRun
}

// NewSuite builds an empty suite.
func NewSuite(s Scale, cores int) *Suite {
	return &Suite{Scale: s, Cores: cores, cache: map[suiteKey]*suiteEntry{}}
}

// Run returns the cached run for (policy, mix), simulating on first use.
// Concurrent callers with the same key share one simulation.
func (st *Suite) Run(policy, mixName string) MixRun {
	st.mu.Lock()
	if st.cache == nil {
		st.cache = map[suiteKey]*suiteEntry{}
	}
	e := st.cache[suiteKey{policy, mixName}]
	if e == nil {
		e = &suiteEntry{}
		st.cache[suiteKey{policy, mixName}] = e
	}
	st.mu.Unlock()
	e.once.Do(func() {
		sc := st.Scale.forJob(st.fanIn(), policy+"/"+mixName)
		if st.Cores > 16 {
			sc = sc.For64()
		}
		e.run = sc.RunMix(policy, workloads.MixByName(mixName), st.Cores)
		st.sims.Add(1)
	})
	return e.run
}

// Simulations reports how many simulations actually executed — the
// single-flight test asserts contended Run calls of one key execute one.
func (st *Suite) Simulations() uint64 { return st.sims.Load() }

// Prefetch simulates every (policy, mix) pair across the suite's
// Scale.Workers pool; subsequent Run calls are cache hits. The figure
// drivers stay sequential consumers — all parallelism lives here.
func (st *Suite) Prefetch(policies, mixes []string) {
	keys := make([]suiteKey, 0, len(policies)*len(mixes))
	for _, p := range policies {
		for _, m := range mixes {
			keys = append(keys, suiteKey{p, m})
		}
	}
	ForEach(st.Scale.Workers, len(keys), func(i int) {
		st.Run(keys[i].policy, keys[i].mix)
	})
}
