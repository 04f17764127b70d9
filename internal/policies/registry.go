// Package policies is the name-keyed registry every layer — facade, CLIs,
// delta-served, experiments — resolves partitioning policies through. The
// seven built-in schemes register themselves here; external callers add
// their own via the facade's delta.RegisterPolicy.
//
// A builder receives the interval scale (the facade's TimeCompression) and
// an optional JSON parameter blob. Builders resolve scale-adjusted defaults
// first and then unmarshal the blob on top, so a full parameter struct
// overrides everything while a partial one tweaks individual knobs. The
// built-in builders validate the result and return an error, never panic,
// on out-of-range parameters.
package policies

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"delta/internal/bankbw"
	"delta/internal/carma"
	"delta/internal/central"
	"delta/internal/chip"
	"delta/internal/core"
	"delta/internal/lfoc"
)

// BuildContext carries the construction inputs every builder sees.
type BuildContext struct {
	// IntervalScale divides the paper's reconfiguration intervals
	// (the facade's TimeCompression); 0 means unscaled.
	IntervalScale uint64
	// Params optionally overrides the policy's parameters as JSON,
	// unmarshaled onto the scale-resolved defaults.
	Params json.RawMessage
	// LLCWays is the associativity of one LLC bank, taken from the chip
	// the policy will attach to, so builders can reject parameters that do
	// not fit its geometry. 0 means unknown: such checks then happen when
	// the policy attaches.
	LLCWays int
}

// scale divides a paper-scale interval, clamped to one cycle.
func (ctx BuildContext) scale(interval uint64) uint64 {
	if ctx.IntervalScale > 1 {
		interval /= ctx.IntervalScale
	}
	if interval == 0 {
		interval = 1
	}
	return interval
}

// Builder constructs a policy instance from a build context.
type Builder func(BuildContext) (chip.Policy, error)

var (
	order    []string
	builders = map[string]Builder{}
)

// Register adds a named builder. It panics on an empty name or a duplicate:
// registration happens at init time, where a clash is a programming error.
func Register(name string, b Builder) {
	if name == "" {
		panic("policies: Register with empty name")
	}
	if b == nil {
		panic("policies: Register with nil builder")
	}
	if _, dup := builders[name]; dup {
		panic(fmt.Sprintf("policies: policy %q registered twice", name))
	}
	builders[name] = b
	order = append(order, name)
}

// Names lists the registered policies: built-ins first in registration
// order, then external registrations sorted by name.
func Names() []string {
	out := append([]string(nil), order[:builtins]...)
	rest := append([]string(nil), order[builtins:]...)
	sort.Strings(rest)
	return append(out, rest...)
}

// Registered reports whether name resolves.
func Registered(name string) bool {
	_, ok := builders[name]
	return ok
}

// Build constructs the named policy; an unknown name's error lists every
// registered policy.
func Build(name string, ctx BuildContext) (chip.Policy, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("policies: unknown policy %q (registered: %s)",
			name, strings.Join(Names(), " "))
	}
	return b(ctx)
}

// unmarshalParams applies an optional JSON blob onto resolved defaults.
func unmarshalParams(ctx BuildContext, name string, into any) error {
	if len(ctx.Params) == 0 {
		return nil
	}
	if err := json.Unmarshal(ctx.Params, into); err != nil {
		return fmt.Errorf("policies: %s params: %w", name, err)
	}
	return nil
}

// builtins is the count of policies registered by this package's own init;
// Names keeps them in registration order ahead of external additions.
var builtins int

func init() {
	Register("snuca", func(BuildContext) (chip.Policy, error) {
		return chip.NewSnuca(), nil
	})
	Register("private", func(BuildContext) (chip.Policy, error) {
		return chip.NewPrivate(), nil
	})
	Register("delta", func(ctx BuildContext) (chip.Policy, error) {
		scale := ctx.IntervalScale
		if scale == 0 {
			scale = 1
		}
		params := core.DefaultParams().Scale(scale)
		if err := unmarshalParams(ctx, "delta", &params); err != nil {
			return nil, err
		}
		if err := params.Validate(); err != nil {
			return nil, err
		}
		return core.New(params), nil
	})
	Register("ideal", func(ctx BuildContext) (chip.Policy, error) {
		cfg := central.DefaultIdealConfig()
		cfg.Interval = ctx.scale(cfg.Interval)
		if err := unmarshalParams(ctx, "ideal", &cfg); err != nil {
			return nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return central.NewIdeal(cfg), nil
	})
	Register("lfoc", func(ctx BuildContext) (chip.Policy, error) {
		cfg := lfoc.DefaultConfig()
		cfg.Interval = ctx.scale(cfg.Interval)
		if err := unmarshalParams(ctx, "lfoc", &cfg); err != nil {
			return nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return lfoc.New(cfg), nil
	})
	Register("carma", func(ctx BuildContext) (chip.Policy, error) {
		cfg := carma.DefaultConfig()
		cfg.Interval = ctx.scale(cfg.Interval)
		if err := unmarshalParams(ctx, "carma", &cfg); err != nil {
			return nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if ctx.LLCWays > 0 {
			if err := cfg.ValidateWays(ctx.LLCWays); err != nil {
				return nil, err
			}
		}
		return carma.New(cfg), nil
	})
	Register("bankbw", func(ctx BuildContext) (chip.Policy, error) {
		p := struct {
			// Base names the wrapped policy (default "snuca");
			// BaseParams optionally parameterizes it.
			Base       string
			BaseParams json.RawMessage
			bankbw.Config
		}{Base: "snuca"}
		if err := unmarshalParams(ctx, "bankbw", &p); err != nil {
			return nil, err
		}
		if p.Base == "bankbw" {
			return nil, fmt.Errorf("policies: bankbw cannot wrap itself")
		}
		if err := p.Config.Validate(); err != nil {
			return nil, err
		}
		base, err := Build(p.Base, BuildContext{IntervalScale: ctx.IntervalScale, Params: p.BaseParams, LLCWays: ctx.LLCWays})
		if err != nil {
			return nil, fmt.Errorf("policies: bankbw base: %w", err)
		}
		return bankbw.New(base, p.Config), nil
	})
	builtins = len(order)
}
