package core

import (
	"fmt"
	"math"

	"delta/internal/cbt"
	"delta/internal/chip"
	"delta/internal/sim"
	"delta/internal/telemetry"
	"delta/internal/umon"
)

// Stats counts DELTA's activity for the overhead analysis (Section IV-E).
// The json tags are its snapshot form.
type Stats struct {
	ChallengesSent   uint64 `json:"challenges_sent"`
	ChallengesWon    uint64 `json:"challenges_won"`
	ChallengesFailed uint64 `json:"challenges_failed"`
	GainUpdates      uint64 `json:"gain_updates"`
	IntraMoves       uint64 `json:"intra_moves"`
	Expansions       uint64 `json:"expansions"`
	Retreats         uint64 `json:"retreats"`
	IdleGrants       uint64 `json:"idle_grants"`
	InvalLines       uint64 `json:"inval_lines"`
}

// Delta is the distributed partitioning policy. It implements chip.Policy,
// enforcing its allocation through the embedded CBTs and WP units.
type Delta struct {
	chip.Enforcement

	p Params
	c *chip.Chip
	n int // tiles (== cores == banks)
	w int // ways per bank

	// alloc[core][bank] counts ways core owns in bank (mirrors the WP
	// units' ownership, maintained incrementally).
	alloc [][]int
	// bankOrder[core] lists the banks core occupies, home first, then in
	// acquisition order; it fixes the CBT range layout so expansions and
	// retreats move few buckets.
	bankOrder [][]int

	// Per-core monitoring state, refreshed each inter-bank epoch.
	curve []umon.Curve // in MPKI units
	mlp   []float64
	pain  []float64
	// bankGain[bank][core] is the last gain core communicated to bank
	// (the paper's per-bank register arrays).
	bankGain [][]float64

	// Challenge sweep state: the set of tiles already challenged in the
	// current round-robin pass.
	challenged []map[int]bool

	// pid guards the multithreaded rule: challenges between threads of the
	// same process always fail (Section II-E).
	pid []int

	interTick []*sim.Ticker
	intraTick []*sim.Ticker

	// grantedAt[bank][core] is the cycle a guest last won ways in the bank
	// (residency protection); cooldownUntil[core][bank] blocks re-challenges
	// after a retreat.
	grantedAt     [][]uint64
	cooldownUntil [][]uint64
	// gainDirty[b] marks that bank b's gain registers changed since the
	// last intra-bank move. The intra loop runs 10x faster than the gain
	// updates (i_intra vs i_inter); acting more than once on the same
	// register contents just overshoots along a stale comparison, so moves
	// are throttled to one per refresh.
	gainDirty []bool

	maxTotal int

	Stats Stats

	// rec receives structured telemetry events: the chip's recorder, or
	// Nop when the chip has none (never nil).
	rec telemetry.Recorder
}

// New builds a DELTA policy; p must pass Validate and ValidateWays for the
// chip it attaches to.
func New(p Params) *Delta {
	return &Delta{p: p, rec: telemetry.Nop{}}
}

// Name implements chip.Policy.
func (d *Delta) Name() string { return "delta" }

// Params returns the active parameters.
func (d *Delta) Params() Params { return d.p }

// SetProcess assigns a process ID to a core (threads of one multithreaded
// application share a pid). Call after Attach, before Run.
func (d *Delta) SetProcess(core, pid int) { d.pid[core] = pid }

// Attach implements chip.Policy: equal partitioning, every core owning its
// home bank, with reconfiguration epochs staggered across tiles so the
// algorithm stays asynchronous.
func (d *Delta) Attach(c *chip.Chip) {
	d.c = c
	d.InitEnforcement(c)
	if r := c.Recorder(); r != nil {
		d.rec = r
	}
	d.n = c.Cores()
	d.w = c.Ways()
	d.maxTotal = d.p.MaxTotalWays
	if d.maxTotal == 0 {
		d.maxTotal = c.Monitor(0).MaxWays()
	}
	d.alloc = make([][]int, d.n)
	d.bankOrder = make([][]int, d.n)
	d.curve = make([]umon.Curve, d.n)
	d.mlp = make([]float64, d.n)
	d.pain = make([]float64, d.n)
	d.bankGain = make([][]float64, d.n)
	d.challenged = make([]map[int]bool, d.n)
	d.pid = make([]int, d.n)
	d.interTick = make([]*sim.Ticker, d.n)
	d.intraTick = make([]*sim.Ticker, d.n)
	for i := 0; i < d.n; i++ {
		d.alloc[i] = make([]int, d.n)
		d.alloc[i][i] = d.w
		d.bankOrder[i] = []int{i}
		d.bankGain[i] = make([]float64, d.n)
		d.challenged[i] = make(map[int]bool)
		d.grantedAt = append(d.grantedAt, make([]uint64, d.n))
		d.cooldownUntil = append(d.cooldownUntil, make([]uint64, d.n))
		d.gainDirty = append(d.gainDirty, true)
		d.mlp[i] = 1
		// Until a tile's first epoch it must not be invadable: its pain is
		// unknown, not zero.
		d.pain[i] = math.Inf(1)
		d.pid[i] = i
		// Stagger epochs across tiles: DELTA is asynchronous by design.
		d.interTick[i] = sim.NewTicker(d.p.InterInterval,
			d.p.InterInterval*uint64(i+1)/uint64(d.n))
		d.intraTick[i] = sim.NewTicker(d.p.IntraInterval,
			d.p.IntraInterval*uint64(i+1)/uint64(d.n))
	}
}

// Tick implements chip.Policy: fire due inter-bank (per tile) and intra-bank
// (per bank) epochs.
func (d *Delta) Tick(now uint64) {
	for i := 0; i < d.n; i++ {
		if d.interTick[i].Due(now) > 0 {
			d.interEpoch(i, now)
		}
		if d.intraTick[i].Due(now) > 0 {
			d.intraEpoch(i, now)
		}
	}
}

// --- metric helpers ----------------------------------------------------------

// totalWays returns core's chip-wide allocation.
func (d *Delta) totalWays(core int) int {
	t := 0
	for _, w := range d.alloc[core] {
		t += w
	}
	return t
}

// remoteWays is the `k` term of Equation 1.
func (d *Delta) remoteWays(core int) int {
	return d.totalWays(core) - d.alloc[core][core]
}

// rawGain computes a_gainWays / ((k+1) * m): Equation 1 before the
// hop-distance divisor.
func (d *Delta) rawGain(core int) float64 {
	a := d.curve[core].MissesAvoided(d.totalWays(core), d.p.GainWays)
	k := float64(d.remoteWays(core))
	return a / ((k + 1) * d.mlp[core])
}

// gainAt is the gain a core registers at a bank for the intra-bank
// comparisons: a_gainWays / (m * (l+1)). Unlike the challenge gain it is NOT
// damped by the remote footprint (k+1): the k-term exists to make *further
// expansion* progressively harder (Eq. 1's fairness argument), while the
// register arrays answer "how much does this partition still value the
// capacity it already holds". Damping retention by k would strip every guest
// right after its successful challenge and the system could never hold
// remote capacity — an expand/retreat livelock.
func (d *Delta) gainAt(core, bank int) float64 {
	a := d.curve[core].MissesAvoided(d.totalWays(core), d.p.GainWays)
	g := a / d.mlp[core]
	if d.p.DistancePenalty {
		g /= float64(d.c.Topo.Dist(core, bank) + 1)
	}
	return g
}

// computePain evaluates Equation 2: a_painWays / m, undamped so the home
// application defends its allocation.
func (d *Delta) computePain(core int) float64 {
	a := d.curve[core].MissesIncurred(d.totalWays(core), d.p.PainWays)
	return a / d.mlp[core]
}

// --- inter-bank epoch (Algorithm 1) -----------------------------------------

func (d *Delta) interEpoch(i int, now uint64) {
	// Refresh monitoring state: UMON window scaled to MPKI and blended
	// into an EWMA, and MLP from the performance counters.
	iv := d.c.CoreInterval(i)
	raw := d.c.Monitor(i).Epoch()
	var fresh umon.Curve
	if iv.Instructions > 0 {
		fresh = raw.Scale(1000 / float64(iv.Instructions))
	} else {
		fresh = raw.Scale(0)
	}
	a := d.p.Smoothing
	if d.curve[i].CumHits == nil {
		d.curve[i] = fresh
	} else {
		prev := d.curve[i]
		blended := prev.Scale(1 - a)
		add := fresh.Scale(a)
		for w := range blended.CumHits {
			blended.CumHits[w] += add.CumHits[w]
		}
		blended.Accesses += add.Accesses
		d.curve[i] = blended
	}
	d.mlp[i] = a*iv.MLP + (1-a)*d.mlp[i]
	d.pain[i] = d.computePain(i)

	// Communicate per-bank gains to every occupied bank (the register
	// arrays the intra-bank algorithm reads).
	d.bankGain[i][i] = d.gainAt(i, i)
	d.gainDirty[i] = true
	for _, b := range d.bankOrder[i] {
		if b == i {
			continue
		}
		d.Stats.GainUpdates++
		d.rec.Count("core.gain_updates", 1)
		d.c.SendControl(i, b, sim.Msg{Kind: MsgGain, A: i, B: b,
			FBits: math.Float64bits(d.gainAt(i, b))})
	}

	// Challenge (Algorithm 1 lines 4-8).
	rg := d.rawGain(i)
	if rg <= d.p.GainThreshold || d.alloc[i][i] < d.p.MinWays ||
		d.totalWays(i)+d.p.InterDeltaWays > d.maxTotal {
		return
	}
	target := d.pickTarget(i, now)
	if target < 0 {
		return
	}
	gain := rg
	if d.p.DistancePenalty {
		gain /= float64(d.c.Topo.Dist(i, target) + 1)
	}
	d.challenged[i][target] = true
	d.Stats.ChallengesSent++
	d.rec.Count("core.challenges_sent", 1)
	d.rec.Event(telemetry.Event{Cycle: now, Kind: telemetry.KindChallenge,
		Core: i, Bank: target, GainTo: gain})
	d.c.SendControl(i, target, sim.Msg{Kind: MsgChallenge, A: i, B: target,
		FBits: math.Float64bits(gain)})
}

// pickTarget returns the closest tile not yet challenged in the current
// sweep, skipping banks the challenger already fully owns. When every
// candidate has been tried the sweep resets (Algorithm 1: a tile is only
// re-challenged after all others were exhausted).
func (d *Delta) pickTarget(i int, now uint64) int {
	neighbors := d.c.Topo.NeighborsByDistance(i)
	for pass := 0; pass < 2; pass++ {
		for _, nb := range neighbors {
			if d.challenged[i][nb] {
				continue
			}
			if d.alloc[i][nb] >= d.w {
				continue // nothing left to win there
			}
			if d.cooldownUntil[i][nb] > now {
				continue // recently retreated from there
			}
			return nb
		}
		// Sweep exhausted: reset and retry once.
		d.challenged[i] = make(map[int]bool)
	}
	return -1
}

// handleChallenge runs at the challenged tile j (Algorithm 1 lines 9-16).
func (d *Delta) handleChallenge(j, challenger int, gain float64, now uint64) {
	if !d.c.HasWorkload(challenger) {
		// The challenge was in flight when its sender's workload departed or
		// migrated away (dynamic scenarios); granting it would strand ways on
		// an empty partition.
		d.respond(j, challenger, false, 0)
		return
	}
	if d.pid[j] == d.pid[challenger] && j != challenger {
		// Threads of one process do not compete (Section II-E).
		d.respond(j, challenger, false, 0)
		return
	}
	// Idle home tile: hand over the whole bank (minus the inclusion
	// reserve) immediately instead of gradually, bounded by the
	// challenger's allocation cap.
	if d.c.IdleCore(j) && d.alloc[j][j] > d.p.MinWays {
		w := d.alloc[j][j] - d.p.MinWays
		if room := d.maxTotal - d.totalWays(challenger); w > room {
			w = room
		}
		if w > 0 {
			d.transferWays(j, j, challenger, w)
			d.grantedAt[j][challenger] = now
			d.Stats.IdleGrants++
			d.rec.Count("core.idle_grants", 1)
			d.rec.Event(telemetry.Event{Cycle: now, Kind: telemetry.KindIdleGrant,
				Core: j, Peer: challenger, Bank: j, Ways: w})
			d.respond(j, challenger, true, w)
			return
		}
	}
	// Victim selection: the co-resident partition with the smallest
	// defending value — pain for the home application, communicated gain
	// for guests (partitionWithSmallestGainOrPainInChallenged). Guests
	// inside their residency window are not considered.
	residency := uint64(d.p.ResidencyIntraEpochs) * d.p.IntraInterval
	victim, best := -1, math.Inf(1)
	for p := 0; p < d.n; p++ {
		if p == challenger || d.alloc[p][j] == 0 {
			continue
		}
		floor := 0
		if p == j {
			floor = d.p.MinWays
		}
		if d.alloc[p][j] <= floor {
			continue
		}
		if p != j && d.grantedAt[j][p]+residency > now {
			continue
		}
		var v float64
		if p == j && d.p.PainDefense {
			v = d.pain[j]
		} else {
			v = d.bankGain[j][p]
		}
		if v < best {
			best, victim = v, p
		}
	}
	if victim < 0 || gain <= best*d.p.ChallengeMargin {
		d.respond(j, challenger, false, 0)
		return
	}
	floor := 0
	if victim == j {
		floor = d.p.MinWays
	}
	w := d.p.InterDeltaWays
	if avail := d.alloc[victim][j] - floor; w > avail {
		w = avail
	}
	// Re-check the challenger's allocation cap at handle time. The
	// challenger verified room when it *sent* the challenge, but the message
	// is in flight for a NoC latency and other grants (an idle handover, a
	// concurrent challenge, an intra-bank move) can fill the remaining room
	// meanwhile; transferring unconditionally here pushed totalWays past
	// maxTotal. Flushed out by the invariant harness (totalWays ≤ maxTotal
	// in Delta.CheckInvariants).
	if room := d.maxTotal - d.totalWays(challenger); w > room {
		w = room
	}
	if w <= 0 {
		d.respond(j, challenger, false, 0)
		return
	}
	d.transferWays(j, victim, challenger, w)
	d.gainDirty[j] = true
	d.grantedAt[j][challenger] = now
	d.rec.Count("core.ways_ceded", uint64(w))
	d.rec.Event(telemetry.Event{Cycle: now, Kind: telemetry.KindCede,
		Core: victim, Peer: challenger, Bank: j, Ways: w,
		GainFrom: best, GainTo: gain})
	// The challenge message carried the challenger's gain: seed the bank's
	// register array with it so the intra-bank loop does not strip the
	// newcomer before its first periodic gain update arrives. The periodic
	// updates overwrite it — a stale high value must not linger.
	d.bankGain[j][challenger] = gain
	d.respond(j, challenger, true, w)
}

// respond sends the challenge response back (Algorithm 1 lines 13/15).
func (d *Delta) respond(j, challenger int, success bool, ways int) {
	d.c.SendControl(j, challenger, sim.Msg{Kind: MsgResponse,
		A: challenger, B: j, C: ways, Flag: success})
}

// handleResponse runs at the challenger (Algorithm 1 lines 17-22).
func (d *Delta) handleResponse(i, j int, success bool, ways int) {
	d.rec.Event(telemetry.Event{Cycle: d.c.Now(), Kind: telemetry.KindChallengeResult,
		Core: i, Bank: j, Won: success, Ways: ways})
	if !success {
		d.Stats.ChallengesFailed++
		d.rec.Count("core.challenges_failed", 1)
		return
	}
	d.Stats.ChallengesWon++
	d.Stats.Expansions++
	d.rec.Count("core.challenges_won", 1)
	if !d.c.HasWorkload(i) {
		// The workload departed while its won response was in flight. The
		// ways were already transferred at the defender; clearing the gain
		// register the grant seeded lets the intra-bank loop drain them back
		// instead of a stale high value attracting even more capacity.
		d.bankGain[j][i] = 0
		d.gainDirty[j] = true
		return
	}
	found := false
	for _, b := range d.bankOrder[i] {
		if b == j {
			found = true
			break
		}
	}
	if !found {
		d.bankOrder[i] = append(d.bankOrder[i], j)
	}
	d.rebuildCBT(i)
}

// --- intra-bank epoch (Algorithm 2) -----------------------------------------

func (d *Delta) intraEpoch(b int, now uint64) {
	if !d.gainDirty[b] {
		return // no fresh information since the last move
	}
	// Partitions sharing the bank.
	var present []int
	for p := 0; p < d.n; p++ {
		if d.alloc[p][b] > 0 {
			present = append(present, p)
		}
	}
	if len(present) < 2 {
		return
	}
	residency := uint64(d.p.ResidencyIntraEpochs) * d.p.IntraInterval
	largest, smallest := -1, -1
	largestG, smallestG := math.Inf(-1), math.Inf(1)
	for _, p := range present {
		g := d.bankGain[b][p]
		if g > largestG {
			largestG, largest = g, p
		}
		floor := 0
		if p == b {
			floor = d.p.MinWays
		}
		if d.alloc[p][b] <= floor {
			continue // cannot shrink further
		}
		if p != b && d.grantedAt[b][p]+residency > now {
			continue // freshly expanded guest: residency protection
		}
		if g < smallestG {
			smallestG, smallest = g, p
		}
	}
	if largest < 0 || smallest < 0 || largest == smallest {
		return
	}
	// Hysteresis: require a clear gain advantage before shuffling capacity.
	if largestG <= smallestG*d.p.IntraMargin+1e-12 {
		return
	}
	// Pain deterrent for the home partition (see Params.PainDefenseIntra).
	if d.p.PainDefenseIntra && smallest == b &&
		largestG <= d.pain[b]*d.p.IntraMargin {
		return
	}
	if d.totalWays(largest)+d.p.IntraDeltaWays > d.maxTotal {
		return
	}
	floor := 0
	if smallest == b {
		floor = d.p.MinWays
	}
	w := d.p.IntraDeltaWays
	if avail := d.alloc[smallest][b] - floor; w > avail {
		w = avail
	}
	d.transferWays(b, smallest, largest, w)
	d.gainDirty[b] = false
	d.Stats.IntraMoves++
	d.rec.Count("core.intra_moves", 1)
	d.rec.Event(telemetry.Event{Cycle: now, Kind: telemetry.KindIntraShift,
		Core: largest, Peer: smallest, Bank: b, Ways: w,
		GainFrom: smallestG, GainTo: largestG})
	// Feedback to the contending home tiles (Algorithm 2 line 6): the new
	// allocation informs their next pain/gain computation.
	if smallest != b {
		d.c.SendControl(b, smallest, sim.Msg{Kind: sim.MsgNoop})
	}
	if largest != b {
		d.c.SendControl(b, largest, sim.Msg{Kind: sim.MsgNoop})
	}
}

// --- enforcement plumbing ----------------------------------------------------

// moveWays hands up to max of from's ways in bank to to, in the WP unit and
// the allocation table, and returns how many moved. Way moves alone require
// no invalidation: existing lines stay until the new owner's insertions
// evict them, exactly as in way-partitioned hardware.
func (d *Delta) moveWays(bank, from, to, max int) int {
	moved := d.MoveWays(bank, from, to, max)
	d.alloc[from][bank] -= moved
	d.alloc[to][bank] += moved
	return moved
}

// transferWays is the protocol's way move: it hands w ways in bank from one
// partition to another and handles a full retreat of the loser.
func (d *Delta) transferWays(bank, from, to, w int) {
	if w <= 0 || from == to {
		return
	}
	d.moveWays(bank, from, to, w)
	if d.alloc[from][bank] == 0 && from != bank {
		// Retreat (Section II-D example 2): notify the owner so it remaps
		// and invalidates, and back off from that bank for a while. The
		// bank's gain register for the departed partition is cleared.
		d.bankGain[bank][from] = 0
		d.Stats.Retreats++
		d.rec.Count("core.retreats", 1)
		d.rec.Event(telemetry.Event{Cycle: d.c.Now(), Kind: telemetry.KindRetreat,
			Core: from, Bank: bank})
		loser, b := from, bank
		d.cooldownUntil[loser][b] = d.c.Now() +
			uint64(d.p.RetreatCooldownEpochs)*d.p.InterInterval
		d.c.SendControl(bank, loser, sim.Msg{Kind: MsgRetreat, A: loser})
	}
}

// handleRetreat rebuilds the loser's CBT after it lost its last way in some
// bank; the rebuild's diff invalidates the ranges that moved home.
func (d *Delta) handleRetreat(core int) {
	kept := d.bankOrder[core][:0]
	for _, b := range d.bankOrder[core] {
		if d.alloc[core][b] > 0 || b == core {
			kept = append(kept, b)
		}
	}
	d.bankOrder[core] = kept
	d.rebuildCBT(core)
}

// rebuildCBT recomputes core's bank table from its current allocation and
// bulk-invalidates every bucket that changed banks (the lines will refetch
// into their new home on next use).
func (d *Delta) rebuildCBT(core int) {
	shares := make([]cbt.Share, 0, len(d.bankOrder[core]))
	for _, b := range d.bankOrder[core] {
		ways := d.alloc[core][b]
		if b == core && ways == 0 {
			// The home bank always anchors the table; MinWays reserve
			// should prevent this, but stay safe.
			ways = 1
		}
		if ways > 0 {
			shares = append(shares, cbt.Share{Bank: b, Ways: ways})
		}
	}
	var next *cbt.Table
	if d.p.ContiguousCBT {
		next = cbt.Build(shares)
	} else {
		next = cbt.BuildIncremental(d.Table(core), shares)
	}
	lines := d.Remap(core, next)
	d.Stats.InvalLines += uint64(lines)
	d.rec.Count("core.remaps", 1)
	d.rec.Count("core.inval_lines", uint64(lines))
	d.rec.Event(telemetry.Event{Cycle: d.c.Now(), Kind: telemetry.KindRemap,
		Core: core, Lines: lines})
}

// CheckInvariants implements chip.SelfChecker. It validates the policy's
// internal bookkeeping against its ground truth:
//   - recounting the WP units' ownership per (bank, partition) reproduces
//     the incrementally maintained alloc table exactly, and every way of
//     every bank has an owner (per-bank allocations therefore sum to the
//     bank's associativity);
//   - no core's chip-wide allocation exceeds maxTotal (the paper's 6/24 MB
//     per-application cap);
//   - the home bank never drops below the MinWays inclusion reserve;
//   - bankOrder lists distinct banks with the home bank first (the CBT
//     layout anchor).
//
// It deliberately does NOT require alloc and the CBTs to agree: between a
// won challenge and the challenger's handleResponse the allocation is ahead
// of the table by design (the rebuild rides the response message). Table
// well-formedness itself is checked by the chip via chip.TableProvider.
func (d *Delta) CheckInvariants() error {
	for b := 0; b < d.n; b++ {
		owned := 0
		for p := 0; p < d.n; p++ {
			owned += d.Ways(p, b)
		}
		if owned != d.w {
			return fmt.Errorf("delta: bank %d has %d owned ways of %d", b, owned, d.w)
		}
	}
	for p := 0; p < d.n; p++ {
		total := 0
		for b := 0; b < d.n; b++ {
			if got := d.Ways(p, b); d.alloc[p][b] != got {
				return fmt.Errorf("delta: alloc[%d][%d] = %d but the WP unit grants %d",
					p, b, d.alloc[p][b], got)
			}
			total += d.alloc[p][b]
		}
		if total > d.maxTotal {
			return fmt.Errorf("delta: core %d owns %d ways chip-wide, cap is %d",
				p, total, d.maxTotal)
		}
		if d.alloc[p][p] < d.p.MinWays {
			return fmt.Errorf("delta: core %d home allocation %d below MinWays reserve %d",
				p, d.alloc[p][p], d.p.MinWays)
		}
		if len(d.bankOrder[p]) == 0 || d.bankOrder[p][0] != p {
			return fmt.Errorf("delta: core %d bankOrder %v does not start with its home bank",
				p, d.bankOrder[p])
		}
		seen := make(map[int]bool, len(d.bankOrder[p]))
		for _, b := range d.bankOrder[p] {
			if seen[b] {
				return fmt.Errorf("delta: core %d bankOrder %v lists bank %d twice",
					p, d.bankOrder[p], b)
			}
			seen[b] = true
		}
	}
	return nil
}

// Alloc returns a copy of core's per-bank way allocation; used by tests and
// the experiment reports (e.g. Fig. 11's way-allocation comparison).
func (d *Delta) Alloc(core int) []int {
	out := make([]int, d.n)
	copy(out, d.alloc[core])
	return out
}

// TotalWays exposes the chip-wide allocation for reports.
func (d *Delta) TotalWays(core int) int { return d.totalWays(core) }
