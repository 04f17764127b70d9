// Package lfoc implements an LFOC-style fairness-oriented clustering policy
// (PAPERS.md: LFOC). Instead of giving every application its own partition,
// it classifies applications by their UMON miss curves into light sharers,
// streamers and cache-sensitive programs, groups the first two (plus idle
// tiles) into one shared cluster, promotes the most capacity-sensitive
// programs to singleton clusters, and splits the per-bank ways between the
// clusters with a max-min fairness rule: each spare way goes to the cluster
// whose estimated slowdown is currently worst, optimizing Jain/unfairness
// rather than raw throughput.
//
// Enforcement differs deliberately from DELTA and the ideal scheme: the
// way partition is chip-wide — the same cluster masks are installed in every
// bank — and data placement is a single static all-bank CBT shared by every
// core, so repartitioning never moves lines between banks and costs zero
// invalidations. Locality is sacrificed for isolation, which is exactly the
// contrast the policy zoo wants to measure.
package lfoc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"delta/internal/cbt"
	"delta/internal/chip"
	"delta/internal/sim"
	"delta/internal/umon"
)

// Application classes, in snapshot encoding order.
const (
	// ClassLight marks applications with too few LLC accesses to matter.
	ClassLight = iota
	// ClassStreamer marks applications whose miss curve is flat: extra
	// capacity avoids (almost) no misses.
	ClassStreamer
	// ClassSensitive marks applications that convert capacity into hits.
	ClassSensitive
)

// Config tunes the clustering policy. DefaultConfig sets every knob;
// Validate and ValidateWays are its range checks.
type Config struct {
	// Interval between reclassification epochs, in cycles.
	Interval uint64
	// Smoothing blends each epoch's miss curve into an exponential moving
	// average (weight of the new sample), in (0, 1]; 1 disables smoothing.
	Smoothing float64
	// MaxClusters bounds the cluster count including the shared cluster,
	// at least 2. At most MaxClusters-1 sensitive applications get
	// singleton clusters; the rest share.
	MaxClusters int
	// SharedWays is the minimum per-bank way grant of the shared cluster
	// when it has members.
	SharedWays int
	// MinClusterWays is the per-bank floor of every singleton cluster.
	MinClusterWays int
	// LightFrac classifies an application as a light sharer when its epoch
	// accesses fall below this fraction of the mean, in (0, 1].
	LightFrac float64
	// FlatFrac classifies an application as a streamer when the misses it
	// could avoid with a full allocation are below this fraction of its
	// accesses, in (0, 1].
	FlatFrac float64
}

// DefaultConfig mirrors the paper's epoch cadence (1 ms at 4 GHz).
func DefaultConfig() Config {
	return Config{
		Interval:       4_000_000,
		Smoothing:      0.3,
		MaxClusters:    8,
		SharedWays:     2,
		MinClusterWays: 1,
		LightFrac:      0.10,
		FlatFrac:       0.05,
	}
}

// Stats counts the policy's activity. The json tags are its snapshot form.
type Stats struct {
	Epochs   uint64 `json:"epochs"`
	Reallocs uint64 `json:"reallocs"` // epochs (or membership events) that changed the partition
}

// Policy is the LFOC clustering policy (chip.Policy).
type Policy struct {
	cfg Config
	c   *chip.Chip
	n   int
	w   int

	tick  *sim.Ticker
	table *cbt.Table // static all-bank placement, shared by every core

	clusterOf   []int     // core -> cluster index (0 = shared)
	clusterWays []int     // cluster -> per-bank ways
	class       []int     // core -> Class*
	benefit     []float64 // core -> misses avoided by a full allocation
	smooth      [][]float64
	masks       []uint64 // core -> way mask (identical in every bank)

	Stats Stats
}

// Validate reports out-of-range knobs.
func (cfg Config) Validate() error {
	switch {
	case cfg.Interval == 0:
		return errors.New("lfoc: zero reclassification interval")
	case !(cfg.Smoothing > 0 && cfg.Smoothing <= 1):
		return errors.New("lfoc: Smoothing out of (0,1]")
	case cfg.MaxClusters < 2:
		return errors.New("lfoc: MaxClusters must allow the shared cluster plus one singleton")
	case cfg.SharedWays < 1:
		return errors.New("lfoc: SharedWays must be positive")
	case cfg.MinClusterWays < 1:
		return errors.New("lfoc: MinClusterWays must be positive")
	case !(cfg.LightFrac > 0 && cfg.LightFrac <= 1):
		return errors.New("lfoc: LightFrac out of (0,1]")
	case !(cfg.FlatFrac > 0 && cfg.FlatFrac <= 1):
		return errors.New("lfoc: FlatFrac out of (0,1]")
	}
	return nil
}

// ValidateWays reports whether the cluster floors of a configuration
// Validate accepts fit banks of the given associativity: the shared
// cluster's floor plus MaxClusters-1 singleton floors must not exceed it.
func (cfg Config) ValidateWays(ways int) error {
	if cfg.SharedWays > ways || cfg.MaxClusters-1 > (ways-cfg.SharedWays)/cfg.MinClusterWays {
		return fmt.Errorf("lfoc: floors of %d shared and %d×%d singleton ways exceed %d ways",
			cfg.SharedWays, cfg.MaxClusters-1, cfg.MinClusterWays, ways)
	}
	return nil
}

// New builds the policy; cfg must pass Validate and ValidateWays for the
// chip it attaches to.
func New(cfg Config) *Policy {
	return &Policy{cfg: cfg}
}

// Name implements chip.Policy.
func (p *Policy) Name() string { return "lfoc" }

// Attach implements chip.Policy: everyone starts in the shared cluster with
// the full associativity, and the static placement table is built once.
func (p *Policy) Attach(c *chip.Chip) {
	p.c = c
	p.n = c.Cores()
	p.w = c.Ways()
	p.tick = sim.NewTicker(p.cfg.Interval, p.cfg.Interval)
	shares := make([]cbt.Share, p.n)
	for b := 0; b < p.n; b++ {
		shares[b] = cbt.Share{Bank: b, Ways: 1}
	}
	p.table = cbt.Build(shares)
	p.clusterOf = make([]int, p.n)
	p.clusterWays = []int{p.w}
	p.class = make([]int, p.n)
	p.benefit = make([]float64, p.n)
	p.masks = make([]uint64, p.n)
	p.rebuildMasks()
}

// BankFor implements chip.Policy through the shared all-bank table; the
// mapping is core-independent, so migrations never strand lines.
func (p *Policy) BankFor(_ int, lineAddr uint64) int {
	return p.table.BankForLine(lineAddr, p.c.LLCSetBits())
}

// WayMask implements chip.Policy: the core's cluster mask, every bank alike.
func (p *Policy) WayMask(core, _ int) uint64 { return p.masks[core] }

// Table implements chip.TableProvider for the invariant harness.
func (p *Policy) Table(_ int) *cbt.Table { return p.table }

// Tick implements chip.Policy: one classify + cluster + allocate pass per
// interval.
func (p *Policy) Tick(now uint64) {
	if p.tick.Due(now) == 0 {
		return
	}
	p.Stats.Epochs++
	if p.smooth == nil {
		p.smooth = make([][]float64, p.n)
	}
	for i := 0; i < p.n; i++ {
		fresh := denseCurve(p.c.Monitor(i).Epoch(), p.n, p.w)
		if p.smooth[i] == nil {
			p.smooth[i] = fresh
		} else {
			a := p.cfg.Smoothing
			for w := range fresh {
				p.smooth[i][w] = a*fresh[w] + (1-a)*p.smooth[i][w]
			}
		}
		// Classification reads the curves centrally and broadcasts cluster
		// assignments back, the same 2N control-message pattern as the
		// ideal centralized scheme.
		p.c.SendControl(i, 0, sim.Msg{Kind: sim.MsgNoop})
		p.c.SendControl(0, i, sim.Msg{Kind: sim.MsgNoop})
		p.c.CoreInterval(i) // keep interval windows rolling
	}
	p.classify()
	p.recluster()
}

// classify derives each core's class and full-allocation benefit from its
// smoothed curve.
func (p *Policy) classify() {
	mean := 0.0
	occupied := 0
	for i := 0; i < p.n; i++ {
		if p.c.HasWorkload(i) && p.smooth[i] != nil {
			mean += p.smooth[i][0]
			occupied++
		}
	}
	if occupied > 0 {
		mean /= float64(occupied)
	}
	for i := 0; i < p.n; i++ {
		if !p.c.HasWorkload(i) || p.smooth[i] == nil {
			p.class[i] = ClassLight
			p.benefit[i] = 0
			continue
		}
		acc := p.smooth[i][0] // misses at zero ways = every access
		p.benefit[i] = acc - p.smooth[i][p.w]
		switch {
		case acc == 0 || acc < p.cfg.LightFrac*mean:
			p.class[i] = ClassLight
		case acc > 0 && p.benefit[i]/acc < p.cfg.FlatFrac:
			p.class[i] = ClassStreamer
		default:
			p.class[i] = ClassSensitive
		}
	}
}

// recluster rebuilds the cluster layout and way split from the stored
// classes and curves, then installs the masks. It is a pure function of
// (class, benefit, smooth, membership), so membership handlers can rerun it
// cheaply and deterministically.
func (p *Policy) recluster() {
	// Promote the most capacity-sensitive applications to singletons,
	// highest benefit first (ties: lower core ID).
	order := make([]int, 0, p.n)
	for i := 0; i < p.n; i++ {
		if p.class[i] == ClassSensitive {
			order = append(order, i)
		}
	}
	for a := 1; a < len(order); a++ {
		for b := a; b > 0; b-- {
			x, y := order[b-1], order[b]
			if p.benefit[y] > p.benefit[x] {
				order[b-1], order[b] = y, x
			} else {
				break
			}
		}
	}
	if max := p.cfg.MaxClusters - 1; len(order) > max {
		order = order[:max] // overflow stays in the shared cluster
	}

	clusterOf := make([]int, p.n)
	singleton := make(map[int]int, len(order))
	for k, core := range order {
		singleton[core] = k + 1
	}
	sharedMembers := 0
	for i := 0; i < p.n; i++ {
		if k, ok := singleton[i]; ok {
			clusterOf[i] = k
		} else {
			clusterOf[i] = 0
			sharedMembers++
		}
	}
	nc := len(order) + 1

	// Per-cluster dense curves at per-bank-way granularity: singletons use
	// their own curve, the shared cluster the sum of its members'.
	curves := make([][]float64, nc)
	curves[0] = make([]float64, p.w+1)
	for i := 0; i < p.n; i++ {
		if clusterOf[i] == 0 && p.smooth != nil && p.smooth[i] != nil {
			for w := 0; w <= p.w; w++ {
				curves[0][w] += p.smooth[i][w]
			}
		}
	}
	for k, core := range order {
		curves[k+1] = p.smooth[core]
	}

	// Max-min fairness: floors first, then each spare way goes to the
	// cluster with the worst estimated slowdown (ties: lower index).
	ways := make([]int, nc)
	left := p.w
	if sharedMembers > 0 {
		ways[0] = p.cfg.SharedWays
		left -= ways[0]
	}
	for k := 1; k < nc; k++ {
		ways[k] = p.cfg.MinClusterWays
		left -= ways[k]
	}
	for ; left > 0; left-- {
		best, bestScore := -1, 0.0
		for k := 0; k < nc; k++ {
			if ways[k] == 0 || ways[k] >= p.w {
				continue // empty shared cluster, or already full
			}
			s := slowdown(curves[k], ways[k], p.w)
			if best == -1 || s > bestScore {
				best, bestScore = k, s
			}
		}
		if best == -1 {
			break
		}
		ways[best]++
	}
	// Every way must belong to a non-empty cluster: dump any remainder on
	// the first cluster that has members.
	if left > 0 {
		for k := 0; k < nc; k++ {
			if ways[k] > 0 {
				ways[k] += left
				left = 0
				break
			}
		}
	}

	changed := len(ways) != len(p.clusterWays)
	for k := 0; !changed && k < len(ways); k++ {
		changed = ways[k] != p.clusterWays[k]
	}
	for i := 0; !changed && i < p.n; i++ {
		changed = clusterOf[i] != p.clusterOf[i]
	}
	p.clusterOf = clusterOf
	p.clusterWays = ways
	p.rebuildMasks()
	if changed {
		p.Stats.Reallocs++
	}
}

// slowdown estimates a cluster's slowdown at cur per-bank ways against a
// full allocation: misses(cur)/misses(full), floored at 1.
func slowdown(curve []float64, cur, full int) float64 {
	m := curve[cur]
	f := curve[full]
	if f <= 0 {
		if m <= 0 {
			return 1.0
		}
		return m // misses over a zero-miss ideal: rank by raw misses
	}
	s := m / f
	if s < 1 {
		s = 1
	}
	return s
}

// rebuildMasks lays clusters out contiguously from way 0 in cluster order
// and assigns every core its cluster's mask.
func (p *Policy) rebuildMasks() {
	base := 0
	clusterMask := make([]uint64, len(p.clusterWays))
	for k, w := range p.clusterWays {
		if w > 0 {
			clusterMask[k] = ((uint64(1) << uint(w)) - 1) << uint(base)
		}
		base += w
	}
	for i := 0; i < p.n; i++ {
		p.masks[i] = clusterMask[p.clusterOf[i]]
	}
}

// CheckInvariants implements chip.SelfChecker: the cluster way split must
// tile the associativity exactly, every core must point at a live cluster,
// and each mask must mirror its cluster's contiguous range.
func (p *Policy) CheckInvariants() error {
	sum := 0
	for k, w := range p.clusterWays {
		if w < 0 {
			return fmt.Errorf("lfoc: cluster %d has negative ways %d", k, w)
		}
		sum += w
	}
	if sum != p.w {
		return fmt.Errorf("lfoc: cluster ways sum to %d of %d", sum, p.w)
	}
	members := make([]int, len(p.clusterWays))
	for i := 0; i < p.n; i++ {
		k := p.clusterOf[i]
		if k < 0 || k >= len(p.clusterWays) {
			return fmt.Errorf("lfoc: core %d in unknown cluster %d", i, k)
		}
		members[k]++
		if got := bits.OnesCount64(p.masks[i]); got != p.clusterWays[k] {
			return fmt.Errorf("lfoc: core %d mask %#x has %d ways, cluster %d owns %d",
				i, p.masks[i], got, k, p.clusterWays[k])
		}
	}
	for k, w := range p.clusterWays {
		if w > 0 && members[k] == 0 {
			return fmt.Errorf("lfoc: cluster %d owns %d ways but has no members", k, w)
		}
	}
	return nil
}

// Config returns the policy's configuration.
func (p *Policy) Config() Config { return p.cfg }

// Clusters returns the current (clusterOf, clusterWays) layout (copies).
func (p *Policy) Clusters() ([]int, []int) {
	return append([]int(nil), p.clusterOf...), append([]int(nil), p.clusterWays...)
}

// Class returns core's current classification (ClassLight, ClassStreamer or
// ClassSensitive).
func (p *Policy) Class(core int) int { return p.class[core] }

// denseCurve samples a umon curve into a dense per-bank-way curve: index w
// is the predicted epoch misses when the application owns w ways in every
// one of banks banks (w*banks ways of chip-wide capacity).
func denseCurve(c umon.Curve, banks, ways int) []float64 {
	out := make([]float64, ways+1)
	prev := math.Inf(1)
	for w := 0; w <= ways; w++ {
		v := c.Misses(w * banks)
		if v > prev {
			v = prev // enforce monotonicity against sampling noise
		}
		out[w] = v
		prev = v
	}
	return out
}
