package central

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"delta/internal/cbt"
	"delta/internal/chip"
	"delta/internal/geom"
	"delta/internal/sim"
	"delta/internal/telemetry"
	"delta/internal/umon"
)

// Placement assigns allocations to banks: Assign[bank][app] is the number of
// ways app owns in bank.
type Placement struct {
	Assign [][]int
}

// MinRemoteChunk is the smallest slice of a bank a remote application may
// receive. A 1-2 way remote slice is a conflict trap: the CBT maps a
// proportional share of the app's address space there, far more lines than
// one or two ways per set can hold. DELTA sidesteps this by expanding in
// interDeltaWays=4 steps; the ideal scheme, which shares DELTA's enforcement
// mechanism, must quantize the same way.
const MinRemoteChunk = 4

// Place performs locality-aware placement of per-app allocations onto banks:
// every app first claims capacity in its home bank, then the remaining
// demands are satisfied greedily from the nearest banks with spare capacity
// in chunks of at least MinRemoteChunk ways, larger demands first (they are
// hardest to place close). Demand remnants below the chunk size return to
// the home application of the bank holding the spare capacity. The
// assignment is deterministic.
func Place(alloc Alloc, topo *geom.Mesh, waysPerBank int) Placement {
	n := len(alloc)
	if n != topo.Tiles() {
		panic("central: allocation length does not match the mesh")
	}
	assign := make([][]int, n)
	capLeft := make([]int, n)
	demand := make([]int, n)
	for b := 0; b < n; b++ {
		assign[b] = make([]int, n)
		capLeft[b] = waysPerBank
	}
	// Pass 1: home-bank claims.
	for i := 0; i < n; i++ {
		h := alloc[i]
		if h > waysPerBank {
			h = waysPerBank
		}
		assign[i][i] = h
		capLeft[i] -= h
		demand[i] = alloc[i] - h
	}
	// Pass 2: remaining demand from nearest banks, largest demand first
	// (ties: lower core ID, keeping the result deterministic).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return demand[order[a]] > demand[order[b]] })
	for _, i := range order {
		if demand[i] < MinRemoteChunk {
			continue // too small to place remotely without a conflict trap
		}
		for _, b := range topo.NeighborsByDistance(i) {
			if demand[i] < MinRemoteChunk {
				break
			}
			if capLeft[b] < MinRemoteChunk {
				continue
			}
			take := demand[i]
			if take > capLeft[b] {
				take = capLeft[b]
			}
			assign[b][i] += take
			capLeft[b] -= take
			demand[i] -= take
		}
	}
	// Any capacity left over (caps bound total demand) returns to the home
	// application so every way has an owner.
	for b := 0; b < n; b++ {
		assign[b][b] += capLeft[b]
		capLeft[b] = 0
	}
	return Placement{Assign: assign}
}

// IdealConfig tunes the ideal centralized policy. DefaultIdealConfig sets
// every knob; Validate and ValidateWays are its range checks.
type IdealConfig struct {
	// Interval between reallocation epochs, in cycles (the paper studies
	// 1 ms and 100 ms).
	Interval uint64
	// MinWays is the per-app floor (inclusion reserve), as in DELTA.
	MinWays int
	// MaxWays caps one app; 0 means the chip's UMON limit.
	MaxWays int
	// LocalityAware disables nearest-first placement when false (ablation:
	// capacity is then placed round-robin irrespective of distance).
	LocalityAware bool
	// Smoothing blends each epoch's miss curve into an exponential moving
	// average (weight of the new sample), in (0, 1]; 1 disables smoothing.
	// Time-compressed runs have short, noisy UMON windows; smoothing
	// restores the stability the paper's 1 ms windows have naturally.
	Smoothing float64
	// MinChange suppresses a chip-wide remap unless some application's
	// allocation moved by at least this many ways.
	MinChange int
	// BenefitGate suppresses a remap unless the new allocation's predicted
	// chip-wide miss count improves on the current one by this fraction,
	// in (0, 1]. Without it, ties between symmetric applications rotate
	// winners epoch after epoch, and each rotation is a chip-wide remap —
	// pure invalidation churn with zero predicted benefit.
	BenefitGate float64
}

// DefaultIdealConfig mirrors the paper's ideal centralized scheme at the
// 1 ms interval (4 M cycles at 4 GHz).
func DefaultIdealConfig() IdealConfig {
	return IdealConfig{
		Interval:      4_000_000,
		MinWays:       4,
		LocalityAware: true,
		Smoothing:     0.3,
		MinChange:     2,
		BenefitGate:   0.05,
	}
}

// IdealStats counts the policy's activity. The json tags are its snapshot
// form.
type IdealStats struct {
	Epochs      uint64 `json:"epochs"`
	Reallocs    uint64 `json:"reallocs"` // epochs where at least one app's allocation changed
	InvalLines  uint64 `json:"inval_lines"`
	CollectMsgs uint64 `json:"collect_msgs"` // monitor-collection + broadcast traffic (2N per epoch)
}

// Ideal is the zero-overhead centralized policy (chip.Policy). It reads all
// UMON curves, runs Lookahead, places the result with locality awareness and
// enforces it through the same CBT + way-mask machinery as DELTA — but the
// allocation computation itself costs zero simulated time, making it the
// upper bound a real Lookahead/Peekahead implementation cannot reach at
// scale (Table VI).
type Ideal struct {
	chip.Enforcement

	cfg IdealConfig
	c   *chip.Chip
	n   int
	w   int

	tick    *sim.Ticker
	alloc   Alloc
	assign  [][]int // current placement
	smooth  []MissCurve
	history []allocStat

	// rec receives one KindAlloc event per allocator invocation, carrying
	// the allocator's wall-clock cost (the Table VI observable): the chip's
	// recorder, or Nop when the chip has none (never nil).
	rec telemetry.Recorder

	Stats IdealStats
}

type allocStat struct {
	sum   float64
	count uint64
}

// Validate reports out-of-range knobs.
func (cfg IdealConfig) Validate() error {
	switch {
	case cfg.Interval == 0:
		return errors.New("central: zero reallocation interval")
	case cfg.MinWays < 1:
		return errors.New("central: MinWays must be positive")
	case cfg.MaxWays < 0:
		return errors.New("central: negative MaxWays")
	case cfg.MaxWays != 0 && cfg.MaxWays < cfg.MinWays:
		return errors.New("central: MaxWays below MinWays")
	case !(cfg.Smoothing > 0 && cfg.Smoothing <= 1):
		return errors.New("central: Smoothing out of (0,1]")
	case cfg.MinChange < 1:
		return errors.New("central: MinChange must be positive")
	case !(cfg.BenefitGate > 0 && cfg.BenefitGate <= 1):
		return errors.New("central: BenefitGate out of (0,1]")
	}
	return nil
}

// ValidateWays reports whether the per-app floor fits banks of the given
// associativity: every app's MinWays must fit its home bank's share of the
// chip-wide budget.
func (cfg IdealConfig) ValidateWays(ways int) error {
	if cfg.MinWays > ways {
		return fmt.Errorf("central: MinWays %d exceeds the %d ways of a bank", cfg.MinWays, ways)
	}
	return nil
}

// NewIdeal builds the policy; cfg must pass Validate and ValidateWays for
// the chip it attaches to.
func NewIdeal(cfg IdealConfig) *Ideal {
	return &Ideal{cfg: cfg, rec: telemetry.Nop{}}
}

// Name implements chip.Policy.
func (p *Ideal) Name() string { return "ideal-central" }

// Attach implements chip.Policy with equal partitioning as the start state.
func (p *Ideal) Attach(c *chip.Chip) {
	p.c = c
	p.InitEnforcement(c)
	if r := c.Recorder(); r != nil {
		p.rec = r
	}
	p.n = c.Cores()
	p.w = c.Ways()
	if p.cfg.MaxWays == 0 {
		p.cfg.MaxWays = c.Monitor(0).MaxWays()
	}
	// No app can hold more than the chip: a larger cap allocates the same.
	p.cfg.MaxWays = min(p.cfg.MaxWays, p.n*p.w)
	p.tick = sim.NewTicker(p.cfg.Interval, p.cfg.Interval)
	p.alloc = make(Alloc, p.n)
	p.assign = make([][]int, p.n)
	p.history = make([]allocStat, p.n)
	for i := 0; i < p.n; i++ {
		p.alloc[i] = p.w
		p.assign[i] = make([]int, p.n)
		p.assign[i][i] = p.w
	}
}

// Tick implements chip.Policy: a full chip-wide reallocation per interval.
func (p *Ideal) Tick(now uint64) {
	if p.tick.Due(now) == 0 {
		return
	}
	p.Stats.Epochs++
	// Collect miss curves chip-wide; a real implementation sends 2N
	// messages (collect + broadcast), which we count as control traffic.
	curves := make([]MissCurve, p.n)
	if p.smooth == nil {
		p.smooth = make([]MissCurve, p.n)
	}
	for i := 0; i < p.n; i++ {
		c := p.c.Monitor(i).Epoch()
		fresh := denseCurve(c, p.cfg.MaxWays)
		if p.smooth[i] == nil {
			p.smooth[i] = fresh
		} else {
			a := p.cfg.Smoothing
			for w := range fresh {
				p.smooth[i][w] = a*fresh[w] + (1-a)*p.smooth[i][w]
			}
		}
		curves[i] = p.smooth[i]
		p.c.SendControl(i, 0, sim.Msg{Kind: sim.MsgNoop}) // stats -> center
		p.c.SendControl(0, i, sim.Msg{Kind: sim.MsgNoop}) // decision -> tile
		p.Stats.CollectMsgs += 2
		p.c.CoreInterval(i) // keep interval windows rolling
	}
	total := p.n * p.w
	allocStart := time.Now()
	next := Lookahead(curves, total, p.cfg.MinWays, p.cfg.MaxWays)
	p.rec.Count("central.allocs", 1)
	maxDelta := 0
	for i := range next {
		d := next[i] - p.alloc[i]
		if d < 0 {
			d = -d
		}
		if d > maxDelta {
			maxDelta = d
		}
		p.history[i].sum += float64(next[i])
		p.history[i].count++
	}
	// One alloc event per invocation: its wall-clock cost is the repo's
	// stand-in for the paper's Table VI allocator-latency observable.
	p.rec.Event(telemetry.Event{Cycle: now, Kind: telemetry.KindAlloc,
		Core: -1, Bank: -1, Ways: maxDelta,
		Nanos: time.Since(allocStart).Nanoseconds()})
	if maxDelta < p.cfg.MinChange {
		return
	}
	// Benefit gate: remapping must pay for itself in predicted misses.
	curMiss, nextMiss := 0.0, 0.0
	for i := range next {
		curMiss += curves[i][clamp(p.alloc[i], len(curves[i])-1)]
		nextMiss += curves[i][clamp(next[i], len(curves[i])-1)]
	}
	if curMiss > 0 && (curMiss-nextMiss)/curMiss < p.cfg.BenefitGate {
		return
	}
	p.Stats.Reallocs++
	p.alloc = next
	var pl Placement
	if p.cfg.LocalityAware {
		pl = Place(next, p.c.Topo, p.w)
	} else {
		pl = placeRoundRobin(next, p.n, p.w)
	}
	p.applyPlacement(pl)
}

// applyPlacement installs a placement: way ownership, then every core's
// CBT, whose remap invalidates the buckets that changed banks.
func (p *Ideal) applyPlacement(pl Placement) {
	p.assign = pl.Assign
	p.setOwners()
	for i := 0; i < p.n; i++ {
		shares := make([]cbt.Share, 0, 4)
		if pl.Assign[i][i] > 0 {
			shares = append(shares, cbt.Share{Bank: i, Ways: pl.Assign[i][i]})
		}
		// Remaining banks nearest-first so the range layout is stable.
		for _, b := range p.c.Topo.NeighborsByDistance(i) {
			if pl.Assign[b][i] > 0 {
				shares = append(shares, cbt.Share{Bank: b, Ways: pl.Assign[b][i]})
			}
		}
		if len(shares) == 0 {
			shares = append(shares, cbt.Share{Bank: i, Ways: 1})
		}
		next := cbt.BuildIncremental(p.Table(i), shares)
		p.Stats.InvalLines += uint64(p.Remap(i, next))
	}
}

// setOwners lays the assignment matrix out in the WP units: each bank's
// ways go to applications in ID order; ways past an over-assignment's
// truncation or an under-assignment's end have no owner.
func (p *Ideal) setOwners() {
	for b := 0; b < p.n; b++ {
		way := 0
		for app := 0; app < p.n; app++ {
			for k := 0; k < p.assign[b][app] && way < p.w; k++ {
				p.SetOwner(b, way, app)
				way++
			}
		}
		for ; way < p.w; way++ {
			p.SetOwner(b, way, chip.NoOwner)
		}
	}
}

// CheckInvariants implements chip.SelfChecker: every bank's assignment sums
// to exactly its associativity (Place and placeRoundRobin both return the
// leftover capacity to the bank's home application), and the WP units'
// masks mirror the assignment matrix way for way. A mismatch means
// setOwners truncated an over-assigned bank — capacity silently granted
// on paper but never enforceable.
//
// It does not compare per-app assignment sums against the allocation vector:
// Place legitimately returns sub-chunk remote remnants to other banks' home
// applications, so enforced capacity may undershoot the allocator's grant.
func (p *Ideal) CheckInvariants() error {
	for b := 0; b < p.n; b++ {
		sum := 0
		for app := 0; app < p.n; app++ {
			a := p.assign[b][app]
			if a < 0 {
				return fmt.Errorf("ideal: assign[%d][%d] = %d is negative", b, app, a)
			}
			if got := p.Ways(app, b); got != a {
				return fmt.Errorf("ideal: bank %d app %d assigned %d ways but mask %#x has %d",
					b, app, a, p.WayMask(app, b), got)
			}
			sum += a
		}
		if sum != p.w {
			return fmt.Errorf("ideal: bank %d assignment sums to %d ways of %d", b, sum, p.w)
		}
	}
	return nil
}

// AvgWays returns the mean allocation the policy granted core across epochs
// (Fig. 11's over-allocation analysis).
func (p *Ideal) AvgWays(core int) float64 {
	h := p.history[core]
	if h.count == 0 {
		return float64(p.w)
	}
	return h.sum / float64(h.count)
}

// Alloc returns the current allocation vector (copy).
func (p *Ideal) Alloc() Alloc {
	out := make(Alloc, p.n)
	copy(out, p.alloc)
	return out
}

// denseCurve samples a umon curve into a dense MissCurve.
func denseCurve(c umon.Curve, maxWays int) MissCurve {
	out := make(MissCurve, maxWays+1)
	prev := math.Inf(1)
	for w := 0; w <= maxWays; w++ {
		v := c.Misses(w)
		if v > prev {
			v = prev // enforce monotonicity against sampling noise
		}
		out[w] = v
		prev = v
	}
	return out
}

// placeRoundRobin ignores locality: demands are satisfied scanning banks in
// ID order. Used by the locality ablation.
func placeRoundRobin(alloc Alloc, n, waysPerBank int) Placement {
	assign := make([][]int, n)
	capLeft := make([]int, n)
	for b := 0; b < n; b++ {
		assign[b] = make([]int, n)
		capLeft[b] = waysPerBank
	}
	for i := 0; i < n; i++ {
		need := alloc[i]
		for b := 0; b < n && need > 0; b++ {
			take := need
			if take > capLeft[b] {
				take = capLeft[b]
			}
			assign[b][i] += take
			capLeft[b] -= take
			need -= take
		}
	}
	for b := 0; b < n; b++ {
		assign[b][b] += capLeft[b]
	}
	return Placement{Assign: assign}
}
