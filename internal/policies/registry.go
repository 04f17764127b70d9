// Package policies is the name-keyed registry every layer — facade, CLIs,
// delta-served, experiments — resolves partitioning policies through. The
// seven built-in schemes register themselves here; external callers add
// their own via the facade's delta.RegisterPolicy.
//
// A builder receives the interval scale (the facade's TimeCompression), an
// optional JSON parameter blob and the chip's bank associativity. The
// built-ins share one build path: complete defaults with the intervals
// scaled, the blob decoded strictly on top (absent keys keep their
// defaults; unknown keys, trailing data and out-of-range values, explicit
// zeros included, are errors), one validation of ranges and bank geometry,
// then construction. A built-in builder returns an error, never panics.
package policies

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// not fit its geometry. 0 means unknown and skips that check.
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

// config is what every configurable built-in's parameter struct provides:
// Validate checks each knob's range, and ValidateWays, on a configuration
// Validate accepts, what depends on the associativity of an LLC bank.
type config interface {
	Validate() error
	ValidateWays(ways int) error
}

// configured is the one build path of the built-ins: defaults returns the
// complete, scale-resolved configuration, the params blob is decoded
// strictly on top, the result is validated once and build constructs the
// policy from it.
func configured[C config](name string, defaults func(BuildContext) C, build func(C, BuildContext) (chip.Policy, error)) Builder {
	return func(ctx BuildContext) (chip.Policy, error) {
		cfg := defaults(ctx)
		if err := decodeParams(ctx.Params, &cfg); err != nil {
			return nil, fmt.Errorf("policies: %s params: %w", name, err)
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if ctx.LLCWays > 0 {
			if err := cfg.ValidateWays(ctx.LLCWays); err != nil {
				return nil, err
			}
		}
		return build(cfg, ctx)
	}
}

// decodeParams decodes an optional JSON object onto into: absent keys keep
// their values, unknown keys and trailing data are errors.
func decodeParams(blob json.RawMessage, into any) error {
	if len(blob) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the params object")
	}
	return nil
}

// noParams is the configuration of a policy without knobs: any key is
// unknown.
type noParams struct{}

func (noParams) Validate() error        { return nil }
func (noParams) ValidateWays(int) error { return nil }

// bankbwParams configures the regulator and names the policy it wraps.
type bankbwParams struct {
	// Base names the wrapped policy; BaseParams optionally parameterizes
	// it and is decoded and validated by the base's own builder.
	Base       string
	BaseParams json.RawMessage
	bankbw.Config
}

func (p bankbwParams) Validate() error {
	if p.Base == "bankbw" {
		return errors.New("policies: bankbw cannot wrap itself")
	}
	return p.Config.Validate()
}

func (bankbwParams) ValidateWays(int) error { return nil }

// builtins is the count of policies registered by this package's own init;
// Names keeps them in registration order ahead of external additions.
var builtins int

func init() {
	Register("snuca", configured("snuca",
		func(BuildContext) noParams { return noParams{} },
		func(noParams, BuildContext) (chip.Policy, error) { return chip.NewSnuca(), nil }))
	Register("private", configured("private",
		func(BuildContext) noParams { return noParams{} },
		func(noParams, BuildContext) (chip.Policy, error) { return chip.NewPrivate(), nil }))
	Register("delta", configured("delta",
		func(ctx BuildContext) core.Params { return core.DefaultParams().Scale(max(ctx.IntervalScale, 1)) },
		func(p core.Params, _ BuildContext) (chip.Policy, error) { return core.New(p), nil }))
	Register("ideal", configured("ideal",
		func(ctx BuildContext) central.IdealConfig {
			cfg := central.DefaultIdealConfig()
			cfg.Interval = ctx.scale(cfg.Interval)
			return cfg
		},
		func(cfg central.IdealConfig, _ BuildContext) (chip.Policy, error) { return central.NewIdeal(cfg), nil }))
	Register("lfoc", configured("lfoc",
		func(ctx BuildContext) lfoc.Config {
			cfg := lfoc.DefaultConfig()
			cfg.Interval = ctx.scale(cfg.Interval)
			return cfg
		},
		func(cfg lfoc.Config, _ BuildContext) (chip.Policy, error) { return lfoc.New(cfg), nil }))
	Register("carma", configured("carma",
		func(ctx BuildContext) carma.Config {
			cfg := carma.DefaultConfig()
			cfg.Interval = ctx.scale(cfg.Interval)
			return cfg
		},
		func(cfg carma.Config, _ BuildContext) (chip.Policy, error) { return carma.New(cfg), nil }))
	Register("bankbw", configured("bankbw",
		func(BuildContext) bankbwParams { return bankbwParams{Base: "snuca", Config: bankbw.DefaultConfig()} },
		func(p bankbwParams, ctx BuildContext) (chip.Policy, error) {
			ctx.Params = p.BaseParams
			base, err := Build(p.Base, ctx)
			if err != nil {
				return nil, fmt.Errorf("policies: bankbw base: %w", err)
			}
			return bankbw.New(base, p.Config), nil
		}))
	builtins = len(order)
}
