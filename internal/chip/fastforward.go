package chip

import (
	"slices"

	"delta/internal/cache"
	"delta/internal/trace"
)

// FastForward analytically warms the chip instead of simulating the warmup
// window: for every tile whose generator exposes a trace.Locality model it
// seeds the UMON with the miss curve a warmup of `warmup` instructions would
// have accumulated, prefills the caches with the generator's hottest lines
// through the normal insertion path (so placement, way masks, directory bits
// and LRU order are all produced by the same machinery as simulation), and
// latches the tile's measurement window open. Run then starts measuring those
// tiles immediately; tiles without a model — custom generators, or shared
// address spaces whose lines cannot be prefilled per-core without aliasing
// across banks — keep the simulated warmup.
//
// FastForward must be called after SetWorkload and before Run, on a chip that
// has not advanced. It returns the number of tiles seeded.
func (c *Chip) FastForward(warmup uint64) int {
	c.mustLive()
	if c.now != 0 {
		panic("chip: FastForward on a chip that has already run")
	}
	var ff ffScratch
	for _, t := range c.Tiles {
		if t.gen != nil {
			ff.active++
		}
	}
	seeded := 0
	for i, t := range c.Tiles {
		if t.gen == nil || t.warmed || t.base == 0 {
			continue
		}
		loc, ok := trace.LocalityOf(t.gen)
		if !ok {
			continue
		}
		nAcc := float64(warmup) * trace.AccessRateOf(t.gen)
		if nAcc <= 0 {
			continue
		}
		c.seedMonitor(t, loc, nAcc, &ff)
		c.prefill(i, t, loc, nAcc, &ff)
		t.warmed = true
		t.startCycle = t.Core.Cycle()
		t.startInstr = t.Core.Instructions()
		t.startLLCAcc = t.LLCAccesses
		t.startMemF = t.MemFetches
		seeded++
	}
	return seeded
}

// ffScratch is one FastForward call's working memory, shared by every tile
// it seeds so the call allocates its buffers once rather than once per tile.
type ffScratch struct {
	active int // tiles with a workload
	hits   []float64
	hot    []uint64
	lines  trace.HotScratch
	places []placement
}

// placement is where prefill put a line in the LLC.
type placement struct{ bank, setIdx int }

// seedMonitor converts the generator's analytical stack-distance curve into
// the UMON counters a simulated warmup would have left behind. The private L2
// filters the LLC-bound stream: accesses whose raw distance fits inside the
// L2 hit there and never reach the monitor, and survivors observe a stack
// depth reduced by the L2-resident hot set — the standard exclusive-window
// approximation d_llc ≈ d_raw − |L2|.
func (c *Chip) seedMonitor(t *Tile, loc trace.Locality, nAcc float64, ff *ffScratch) {
	l2Lines := float64(c.Cfg.L2Bytes / cache.LineBytes)
	g := c.Cfg.UmonGranularity
	buckets := (c.Cfg.UmonMaxWays + g - 1) / g
	// One UMON way spans one line per LLC-bank set.
	waySpan := float64(int(1) << c.llcSetBits)
	hits := slices.Grow(ff.hits[:0], buckets)[:buckets]
	ff.hits = hits
	prev := loc.CumDistance(l2Lines)
	observed := nAcc * (1 - prev)
	sum := 0.0
	for b := 0; b < buckets; b++ {
		cd := loc.CumDistance(l2Lines + float64((b+1)*g)*waySpan)
		hits[b] = nAcc * (cd - prev)
		sum += hits[b]
		prev = cd
	}
	misses := observed - sum
	if misses < 0 {
		misses = 0
	}
	t.Mon.Seed(hits, misses, observed)
}

// prefill installs the tile's analytically hottest lines, coldest first so
// the LRU stamps finish hottest-most-recent, using the same routing, way
// masks and directory updates as a simulated access stream. The footprint is
// capped at the private capacity plus an even share of the LLC; competition
// between tiles is resolved exactly as in simulation, by eviction (including
// back-invalidation of earlier tiles' private copies).
func (c *Chip) prefill(i int, t *Tile, loc trace.Locality, nAcc float64, ff *ffScratch) {
	l1Cap := c.Cfg.L1Bytes / cache.LineBytes
	l2Cap := c.Cfg.L2Bytes / cache.LineBytes
	llcShare := c.Cfg.LLCBytes / cache.LineBytes * c.Cfg.Cores / ff.active
	budget := int(loc.DistinctIn(nAcc))
	if lim := l2Cap + llcShare; budget > lim {
		budget = lim
	}
	hot := loc.AppendHotLines(ff.hot[:0], budget, &ff.lines)
	ff.hot = hot
	if len(hot) == 0 {
		return
	}

	// Pass 1: LLC, coldest first. Placement is recorded so the private fill
	// below does not re-run routing (the page classifier's access counters
	// must tick once per line, as they would during warmup).
	places := slices.Grow(ff.places[:0], len(hot))[:len(hot)]
	ff.places = places
	for k := len(hot) - 1; k >= 0; k-- {
		line := t.base + hot[k]
		bank, sharedLine := c.routeLine(i, line)
		bt := c.Tiles[bank]
		setIdx := bt.LLC.SetIndex(line)
		if sharedLine || c.interleaved {
			setIdx = c.SnucaSetIdx(bt, line)
		}
		places[k] = placement{bank: bank, setIdx: setIdx}
		if bt.LLC.ProbeIdx(setIdx, line) {
			continue
		}
		mask := c.insertMask(i, bank, sharedLine)
		bt.LLC.InsertIdx(setIdx, line, i, false, mask)
	}

	// Pass 2: L2 with the hottest lines that survived LLC contention, setting
	// the directory sharer bit the inclusion invariant demands. Stale sharer
	// bits from intra-pass L2 evictions are fine: the directory is allowed to
	// overapproximate residency, exactly as with silent evictions at runtime.
	n2 := l2Cap
	if n2 > len(hot) {
		n2 = len(hot)
	}
	for k := n2 - 1; k >= 0; k-- {
		line := t.base + hot[k]
		bt := c.Tiles[places[k].bank]
		idx, ok := bt.LLC.FindIdx(places[k].setIdx, line)
		if !ok {
			continue
		}
		t.L2.Fill(line, false)
		c.markSharer(bt, idx, i)
	}

	// Pass 3: L1 with the hottest lines still in the L2 (inclusive hierarchy).
	n1 := l1Cap
	if n1 > n2 {
		n1 = n2
	}
	for k := n1 - 1; k >= 0; k-- {
		line := t.base + hot[k]
		if t.L2.Probe(line) {
			t.L1.Fill(line, false)
		}
	}
}
