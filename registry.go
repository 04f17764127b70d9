package delta

import (
	"delta/internal/chip"
	"delta/internal/policies"
)

// This file is the facade over the policy registry: every layer that needs
// "which policies exist?" (CLIs' -policy all, delta-served's validation, the
// experiments campaigns) asks here instead of keeping a hard-coded list, and
// external packages can plug new chip policies into the same machinery the
// seven built-ins use.

// Policy is the chip-level policy contract a registered builder must
// produce. See internal/chip.Policy; optional capabilities (membership
// handling, snapshotting, self-checks) follow the same interfaces the
// built-in policies implement.
type Policy = chip.Policy

// PolicyBuildContext carries what a policy builder sees: the configuration's
// TimeCompression as IntervalScale, and the WithPolicyParams JSON blob (nil
// when none was set) to unmarshal onto scale-resolved defaults.
type PolicyBuildContext = policies.BuildContext

// PolicyBuilder constructs a policy instance for one simulator. Builders
// must return a fresh instance per call: simulators run concurrently and a
// policy attaches to exactly one chip.
type PolicyBuilder = policies.Builder

// RegisterPolicy adds a named policy to the registry, making it resolvable
// through Config.Policy everywhere built-ins are: the facade, delta-sim and
// delta-bench's -policy flags, delta-served's validation, and the
// experiments campaigns. It panics on an empty or duplicate name — call it
// from an init function.
//
// Registered policies build and run; Snapshot support for third-party
// policies additionally requires implementing chip.PolicySnapshotter.
func RegisterPolicy(name string, builder PolicyBuilder) {
	policies.Register(name, builder)
}

// Policies lists every registered policy name: the seven built-ins in
// registration order (snuca, private, delta, ideal, lfoc, carma, bankbw),
// then external registrations sorted by name.
func Policies() []string { return policies.Names() }
