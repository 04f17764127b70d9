package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"delta/internal/cache"
	"delta/internal/cbt"
	"delta/internal/central"
	"delta/internal/chip"
	"delta/internal/geom"
	"delta/internal/mem"
	"delta/internal/noc"
	"delta/internal/server/api"
	"delta/internal/server/store"
	"delta/internal/sim"
	"delta/internal/umon"
	"delta/internal/workloads"
)

// Layer replays time one layer's public function at a time, fed with the
// access stream of mix w2's own generators, and count its heap allocations
// exactly. Each reports ns (or ms) per call and allocations per call.

// access is one reference of the captured stream.
type access struct {
	core  int
	line  uint64
	write bool
}

// replaySink keeps results observable so the compiler cannot drop calls.
var replaySink uint64

// timeOps runs fn, which performs n calls, and returns ns and heap
// allocations per call.
func timeOps(n int, fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// layerReplays runs every replay and returns its metrics. quick shrinks the
// stream for smoke tests.
func layerReplays(rc runCfg) (map[string]float64, error) {
	const cores = 16
	n := 300_000 // accesses per half: the first half warms, the second is timed
	lookaheads, storeOps := 8, 40
	if rc.Quick {
		n, lookaheads, storeOps = 20_000, 1, 4
	}
	m := map[string]float64{}
	put := func(name string, ns, allocs float64) {
		m[name+"_ns"] = ns
		m[name+"_allocs"] = allocs
	}

	gens := workloads.MixByName("w2").Generators(cores, rc.Seed)
	stream := make([]access, 2*n)
	ns, allocs := timeOps(len(stream), func() {
		for i := range stream {
			c := i % cores
			a := gens[c].Next()
			stream[i] = access{core: c, line: uint64(c+1)<<40 + a.Line, write: a.Write}
		}
	})
	put("trace.next", ns, allocs)

	// Private L1/L2 per core, inclusive as the chip wires them; the L2-miss
	// stream feeds every later replay.
	cfg := chip.DefaultConfig(cores)
	l1 := make([]*cache.Cache, cores)
	l2 := make([]*cache.Cache, cores)
	for c := range l1 {
		l1[c] = cache.New(cache.Config{SizeBytes: cfg.L1Bytes, Ways: cfg.L1Ways})
		l2[c] = cache.New(cache.Config{SizeBytes: cfg.L2Bytes, Ways: cfg.L2Ways})
		inner := l1[c]
		l2[c].OnEvict = func(ln cache.Line) { inner.InvalidateLine(ln.Addr) }
	}
	warmMiss := make([]access, 0, n)
	miss := make([]access, 0, n)
	private := func(src []access, dst *[]access) {
		for _, a := range src {
			if _, hit := l1[a.core].Lookup(a.line, a.write); hit {
				continue
			}
			if _, hit := l2[a.core].Lookup(a.line, a.write); !hit {
				*dst = append(*dst, a)
				l2[a.core].Insert(a.line, cache.NoOwner, a.write, l2[a.core].AllMask())
			}
			l1[a.core].Insert(a.line, cache.NoOwner, a.write, l1[a.core].AllMask())
		}
	}
	private(stream[:n], &warmMiss)
	ns, allocs = timeOps(n, func() { private(stream[n:], &miss) })
	put("cache.l1l2", ns, allocs)
	if len(miss) == 0 {
		return nil, fmt.Errorf("layer replay: w2 stream has no L2 misses")
	}

	// LLC banks with owner tracking; each core inserts into its own bank.
	llc := make([]*cache.Cache, cores)
	for b := range llc {
		llc[b] = cache.New(cache.Config{SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays,
			TrackOwners: true, Partitions: cores})
	}
	bankPath := func(src []access) {
		for _, a := range src {
			bank := llc[a.core]
			set := bank.SetIndex(a.line)
			idx, hit := bank.LookupIdx(set, a.line, a.write)
			if !hit {
				idx, _, _ = bank.InsertIdx(set, a.line, a.core, a.write, bank.AllMask())
			}
			bank.OrSharers(idx, 1<<uint(a.core))
		}
	}
	bankPath(warmMiss)
	ns, allocs = timeOps(len(miss), func() { bankPath(miss) })
	put("cache.llc", ns, allocs)

	mons := make([]*umon.Monitor, cores)
	for c := range mons {
		mons[c] = umon.New(umon.Config{MaxWays: 192, Granularity: cfg.UmonGranularity, SetBits: 9, SampleEvery: 4})
	}
	for _, a := range warmMiss {
		mons[a.core].Access(a.line)
	}
	ns, allocs = timeOps(len(miss), func() {
		for _, a := range miss {
			mons[a.core].Access(a.line)
		}
	})
	put("umon.access", ns, allocs)

	topo := geom.SquareMesh(cores)
	net := noc.New(topo, cfg.NoC)
	ns, allocs = timeOps(len(miss), func() {
		var sum uint64
		for _, a := range miss {
			sum += net.RoundTrip(a.core, int(a.line%cores), noc.ClassData)
		}
		replaySink += sum
	})
	put("noc.roundtrip", ns, allocs)

	msys := mem.New(topo, cfg.Mem)
	ns, allocs = timeOps(len(miss), func() {
		var sum, now uint64
		for _, a := range miss {
			now += 40
			lat, tile := msys.Access(a.line, now)
			sum += lat + uint64(tile)
		}
		replaySink += sum
	})
	put("mem.access", ns, allocs)

	// A three-bank allocation per core, home bank first, as DELTA builds it.
	tables := make([]*cbt.Table, cores)
	for c := range tables {
		tables[c] = cbt.Build([]cbt.Share{{Bank: c, Ways: 8}, {Bank: (c + 1) % cores, Ways: 4}, {Bank: (c + 4) % cores, Ways: 4}})
	}
	ns, allocs = timeOps(len(miss), func() {
		var sum uint64
		for _, a := range miss {
			sum += uint64(tables[a.core].BankForLine(a.line, 9))
		}
		replaySink += sum
	})
	put("cbt.bank", ns, allocs)

	// Control messages scheduled at NoC latencies and drained at quantum
	// boundaries, as chip.SendControl and RunCtx use the queue.
	q := sim.NewEventQueue()
	var fired uint64
	q.Deliver = func(sim.Msg, sim.Cycle) { fired++ }
	schedule := func(src []access) {
		var now uint64
		for i, a := range src {
			lat := net.PeekLatency(a.core, int(a.line%cores))
			q.ScheduleMsg(now+lat+1, sim.Msg{Kind: "bench", A: a.core})
			if i%64 == 63 {
				now += cfg.Quantum
				q.RunUntil(now)
			}
		}
		q.Drain()
	}
	schedule(warmMiss)
	ns, allocs = timeOps(len(miss), func() { schedule(miss) })
	replaySink += fired
	put("sim.event", ns, allocs)

	// The ideal policy's per-reconfiguration allocator call at 64 cores:
	// 16 ways per bank, 4-way floor, the 24 MB UMON cap (768 ways).
	curves := central.SyntheticCurves(64, 768, rc.Seed)
	ns, allocs = timeOps(lookaheads, func() {
		for i := 0; i < lookaheads; i++ {
			replaySink += uint64(central.Lookahead(curves, 64*16, 4, 768).Sum())
		}
	})
	m["central.lookahead64_ms"] = ns / 1e6
	m["central.lookahead64_allocs"] = allocs

	putMS, putAllocs, getMS, getAllocs, err := storeReplay(rc, storeOps)
	if err != nil {
		return nil, err
	}
	m["store.put_ms"], m["store.put_allocs"] = putMS, putAllocs
	m["store.get_ms"], m["store.get_allocs"] = getMS, getAllocs
	return m, nil
}

// storeReplay puts and then gets ops 16-core job documents in a fresh result
// store.
func storeReplay(rc runCfg, ops int) (putMS, putAllocs, getMS, getAllocs float64, err error) {
	dir, err := os.MkdirTemp(rc.TmpDir, "store-")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	docs := make([]api.Job, ops)
	for i := range docs {
		res := &api.Result{GeomeanIPC: 0.17, ElapsedMS: 250}
		for c := 0; c < 16; c++ {
			res.Cores = append(res.Cores, api.CoreResult{Core: c, Instructions: 10_000,
				Cycles: 58_000 + uint64(c*i), IPC: 0.17, MPKI: 12.5, MemMPKI: 3.25, LocalHitFrac: 0.8, MLP: 1.4})
		}
		docs[i] = api.Job{SchemaVersion: api.SchemaVersion, ID: fmt.Sprintf("%032x", i), Status: api.StateDone,
			Request: api.SubmitRequest{Policy: "delta", Cores: 16, Mix: "w2", Seed: rc.Seed}, Result: res}
	}
	var perr, gerr error
	ns, allocs := timeOps(ops, func() {
		for _, d := range docs {
			if err := st.Put(d); err != nil && perr == nil {
				perr = err
			}
		}
	})
	putMS, putAllocs = ns/1e6, allocs
	ns, allocs = timeOps(ops, func() {
		for _, d := range docs {
			if _, ok, err := st.Get(d.ID); (err != nil || !ok) && gerr == nil {
				gerr = fmt.Errorf("store get %s: ok=%v err=%v", d.ID, ok, err)
			}
		}
	})
	getMS, getAllocs = ns/1e6, allocs
	if perr != nil {
		return 0, 0, 0, 0, perr
	}
	return putMS, putAllocs, getMS, getAllocs, gerr
}
