// Package core implements DELTA, the paper's contribution: a fully
// distributed, locality-aware cache-partitioning policy for tile-based CMPs.
//
// The allocation policy has two asynchronous components (Section II-B):
//
//   - The *inter-bank* algorithm runs in every tile at period i_inter. The
//     tile computes its gain — the predicted MPKI reduction from gaining
//     gainWays more ways, damped by its current remote footprint, its MLP
//     and the hop distance (Equation 1) — and, if the gain clears a
//     threshold, challenges its closest not-recently-challenged neighbour.
//     The challenged tile compares the incoming gain with the smallest of
//     its own pain (Equation 2) and its co-tenants' gains; if the challenger
//     wins, interDeltaWays ways change hands and the challenger remaps a
//     proportional slice of its address space into the new bank.
//
//   - The *intra-bank* algorithm runs in every bank at period i_intra and
//     moves intraDeltaWays ways from the co-resident partition with the
//     least gain to the one with the most. Way moves need no invalidation;
//     only a full retreat (a partition losing its last way in a bank)
//     triggers a remap.
//
// Enforcement (Section II-C) combines per-core Cache Bank Tables (package
// cbt) for bank-level placement with per-bank way-partitioning bitmasks; the
// chip's bulk-invalidation unit cleans up remapped ranges.
package core

import (
	"errors"
	"fmt"
)

// Params are DELTA's tuning knobs, with defaults from Table II. Intervals
// are in cycles (the paper's 1 ms / 0.1 ms at 4 GHz are 4 M / 400 K cycles);
// experiments use time-compressed intervals via Scale, preserving the ratio
// of reconfiguration interval to workload phase length (DESIGN.md §3).
type Params struct {
	InterInterval uint64 // i_inter, cycles
	IntraInterval uint64 // i_intra, cycles

	GainThreshold  float64 // minimum raw gain (MPKI units) to challenge
	MinWays        int     // home-bank reserve and challenge precondition
	InterDeltaWays int     // ways transferred on a successful challenge
	IntraDeltaWays int     // ways moved per intra-bank adjustment
	GainWays       int     // capacity delta the gain is evaluated at
	PainWays       int     // capacity delta the pain is evaluated at

	// MaxTotalWays caps one application's allocation (the paper's 6 MB /
	// 24 MB limits); 0 means the chip's UMON limit.
	MaxTotalWays int

	// DistancePenalty applies the (l+1) hop-distance divisor of Equation 1.
	// Disabling it is an ablation (challenges then ignore locality).
	DistancePenalty bool
	// PainDefense uses pain (not gain) for the challenged home partition,
	// the paper's deterrent against aggressive invasion. Disabling it is an
	// ablation: home partitions defend with their gain instead.
	PainDefense bool
	// Smoothing blends each epoch's MPKI curve and MLP into an exponential
	// moving average (weight of the fresh sample). Time-compressed runs
	// have short, noisy UMON windows; smoothing restores the stability the
	// paper's 1 ms windows have naturally. Must be in (0, 1]; 1 disables.
	Smoothing float64
	// IntraMargin is the hysteresis of the intra-bank loop: ways move only
	// when the largest gain exceeds the smallest by this factor. 1 moves on
	// any strict difference (the literal Algorithm 2); a modest margin
	// stops capacity from oscillating between near-equal partitions.
	IntraMargin float64
	// ChallengeMargin is the analogous hysteresis for challenges: the
	// incoming gain must exceed the defender's value by this factor.
	// 1 is the paper's strict comparison.
	ChallengeMargin float64
	// ResidencyIntraEpochs protects a freshly expanded guest from the
	// intra-bank loop for this many intra epochs, so a remap is amortized
	// over a minimum residency instead of being stripped immediately
	// (implemented as a per-bank timestamp register).
	ResidencyIntraEpochs int
	// RetreatCooldownEpochs stops a tile from re-challenging a bank it
	// just retreated from for this many inter epochs, breaking
	// expand/retreat ping-pong.
	RetreatCooldownEpochs int
	// ContiguousCBT rebuilds bank tables as the paper's contiguous ranges
	// instead of the minimal-move incremental layout; an enforcement
	// ablation quantifying the extra invalidation churn of contiguity.
	ContiguousCBT bool
	// PainDefenseIntra extends the pain deterrent to the intra-bank loop:
	// the home partition can only be shrunk when the winner's gain also
	// exceeds the home's pain. Algorithm 2 as printed compares gains only,
	// justified by the challenge gate having used pain — but gains move
	// between epochs, and without this the fast intra loop strips a home
	// below its working set 1 way per i_intra, bypassing the deterrent and
	// driving a reclaim/invade oscillation.
	PainDefenseIntra bool
}

// DefaultParams returns Table II's configuration at full scale.
func DefaultParams() Params {
	return Params{
		InterInterval:         4_000_000,
		IntraInterval:         400_000,
		GainThreshold:         0.5,
		MinWays:               4,
		InterDeltaWays:        4,
		IntraDeltaWays:        1,
		GainWays:              4,
		PainWays:              4,
		DistancePenalty:       true,
		PainDefense:           true,
		Smoothing:             0.3,
		IntraMargin:           1.25,
		ChallengeMargin:       1.25,
		ResidencyIntraEpochs:  20,
		RetreatCooldownEpochs: 8,
		PainDefenseIntra:      true,
	}
}

// Scale returns a copy with both reconfiguration intervals divided by f,
// for time-compressed simulations. It panics on a non-positive factor.
func (p Params) Scale(f uint64) Params {
	if f == 0 {
		panic(fmt.Sprintf("core: invalid interval scale %d", f))
	}
	p.InterInterval /= f
	p.IntraInterval /= f
	if p.InterInterval == 0 {
		p.InterInterval = 1
	}
	if p.IntraInterval == 0 {
		p.IntraInterval = 1
	}
	return p
}

// Validate reports out-of-range or inconsistent parameters.
func (p Params) Validate() error {
	switch {
	case p.InterInterval == 0 || p.IntraInterval == 0:
		return errors.New("core: zero reconfiguration interval")
	case p.MinWays < 1:
		return errors.New("core: MinWays must be at least 1")
	case p.InterDeltaWays < 1 || p.IntraDeltaWays < 1:
		return errors.New("core: way deltas must be positive")
	case p.GainWays < 1 || p.PainWays < 1:
		return errors.New("core: gain/pain windows must be positive")
	case p.MaxTotalWays < 0:
		return errors.New("core: negative MaxTotalWays")
	case !(p.GainThreshold >= 0):
		return errors.New("core: negative gain threshold")
	case !(p.Smoothing > 0 && p.Smoothing <= 1):
		return errors.New("core: Smoothing out of (0,1]")
	case !(p.IntraMargin >= 1):
		return errors.New("core: IntraMargin below 1")
	case !(p.ChallengeMargin >= 1):
		return errors.New("core: ChallengeMargin below 1")
	case p.ResidencyIntraEpochs < 0 || p.RetreatCooldownEpochs < 0:
		return errors.New("core: negative hysteresis epochs")
	}
	return nil
}

// ValidateWays reports whether the way quantities fit banks of the given
// associativity: the home reserve and both way deltas must fit one bank,
// and a cap must leave every core its initial whole home bank.
func (p Params) ValidateWays(ways int) error {
	switch {
	case p.MinWays > ways:
		return fmt.Errorf("core: MinWays %d exceeds the %d ways of a bank", p.MinWays, ways)
	case p.InterDeltaWays > ways || p.IntraDeltaWays > ways:
		return fmt.Errorf("core: way deltas %d/%d exceed the %d ways of a bank",
			p.InterDeltaWays, p.IntraDeltaWays, ways)
	case p.MaxTotalWays != 0 && p.MaxTotalWays < ways:
		return fmt.Errorf("core: MaxTotalWays %d below the %d ways of the home bank", p.MaxTotalWays, ways)
	}
	return nil
}
