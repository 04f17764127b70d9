package delta

import (
	"bytes"
	"strings"
	"testing"

	"delta/internal/bankbw"
	"delta/internal/carma"
	"delta/internal/core"
	"delta/internal/lfoc"
)

// TestPoliciesLists pins the registry's contents and order: the seven
// built-ins in registration order. External registrations would follow,
// sorted by name.
func TestPoliciesLists(t *testing.T) {
	got := Policies()
	want := []string{"snuca", "private", "delta", "ideal", "lfoc", "carma", "bankbw"}
	if len(got) != len(want) {
		t.Fatalf("Policies() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Policies()[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestRegisterPolicyDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a built-in name should panic")
		}
	}()
	RegisterPolicy("delta", func(PolicyBuildContext) (Policy, error) { return nil, nil })
}

// TestUnknownPolicyErrorListsRegistry: the structured rejection names every
// registered policy, so a typo in a submission or CLI flag is self-fixing.
func TestUnknownPolicyErrorListsRegistry(t *testing.T) {
	_, err := New(WithCores(16), WithPolicy("bogus"))
	if err == nil {
		t.Fatal("expected error for unknown policy")
	}
	for _, name := range Policies() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered policy %q", err, name)
		}
	}
}

// TestPolicyParamsContentAddress: WithPolicyParams joins the canonical
// serialization (the service's content address), and a configuration without
// params serializes byte-identically to one predating the field — existing
// hashes and golden snapshots stay valid.
func TestPolicyParamsContentAddress(t *testing.T) {
	base := Config{Cores: 16, Policy: PolicyLFOC,
		WarmupInstructions: 10_000, BudgetInstructions: 10_000}
	plain, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte("PolicyParams")) {
		t.Fatalf("empty PolicyParams leaked into canonical JSON: %s", plain)
	}

	var withParams Config
	WithConfig(base)(&withParams)
	WithPolicyParams(PolicyLFOC, map[string]int{"SharedWays": 4})(&withParams)
	tuned, err := withParams.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plain, tuned) {
		t.Fatal("policy params did not change the canonical serialization")
	}
	if !bytes.Contains(tuned, []byte("SharedWays")) {
		t.Fatalf("params missing from canonical JSON: %s", tuned)
	}
}

// TestPolicyParamsRoundTrip: params reach the built policies (partial maps
// tweak individual knobs on scale-resolved defaults), for each of the three
// new policies including the composed bankbw base.
func TestPolicyParamsRoundTrip(t *testing.T) {
	sim, err := New(WithCores(16), WithPolicy(PolicyLFOC),
		WithWarmup(5_000), WithBudget(5_000),
		WithPolicyParams(PolicyLFOC, map[string]int{"MaxClusters": 3}))
	if err != nil {
		t.Fatal(err)
	}
	want := lfoc.DefaultConfig() // absent keys keep their defaults
	want.Interval /= 50          // the default TimeCompression
	want.MaxClusters = 3
	if p, ok := sim.Policy().(*lfoc.Policy); !ok {
		t.Fatalf("lfoc policy not exposed: %T", sim.Policy())
	} else if got := p.Config(); got != want {
		t.Fatalf("config = %+v, want %+v", got, want)
	}

	sim, err = New(WithCores(16), WithPolicy(PolicyCARMA),
		WithWarmup(5_000), WithBudget(5_000),
		WithPolicyParams(PolicyCARMA, map[string]int{"MaxBudget": 42}))
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := sim.Policy().(*carma.Policy); !ok {
		t.Fatalf("carma policy not exposed: %T", sim.Policy())
	} else if got := p.Config().MaxBudget; got != 42 {
		t.Fatalf("MaxBudget = %v, want 42", got)
	}

	sim, err = New(WithCores(16), WithPolicy(PolicyBankBW),
		WithWarmup(5_000), WithBudget(5_000),
		WithPolicyParams(PolicyBankBW, map[string]any{
			"Base": "delta", "WindowQuanta": 7}))
	if err != nil {
		t.Fatal(err)
	}
	bw, ok := sim.Policy().(*bankbw.Policy)
	if !ok {
		t.Fatalf("bankbw policy not exposed: %T", sim.Policy())
	}
	if got := bw.Config().WindowQuanta; got != 7 {
		t.Fatalf("WindowQuanta = %d, want 7", got)
	}
	if got := bw.Base().Name(); got != "delta" {
		t.Fatalf("bankbw base = %q, want delta", got)
	}
	if _, ok := bankbw.Unwrap(sim.Policy()).(*core.Delta); !ok {
		t.Fatal("bankbw's delta base not reachable through bankbw.Unwrap")
	}

	if _, err := New(WithCores(16), WithPolicy(PolicyBankBW),
		WithPolicyParams(PolicyBankBW, map[string]string{"Base": "bankbw"})); err == nil {
		t.Fatal("bankbw wrapping itself should be rejected")
	}
}

// TestPolicyParamsInvalidRejected: an unmarshalable WithPolicyParams value
// and params for an unregistered policy both surface as construction errors
// instead of being silently dropped.
func TestPolicyParamsInvalidRejected(t *testing.T) {
	if _, err := New(WithCores(16), WithPolicy(PolicyDelta),
		WithPolicyParams(PolicyDelta, make(chan int))); err == nil {
		t.Fatal("unmarshalable params should fail New")
	}
	if _, err := New(WithCores(16), WithPolicy(PolicyDelta),
		WithPolicyParams("bogus", map[string]int{"X": 1})); err == nil {
		t.Fatal("params for an unregistered policy should fail New")
	}
}

// TestPolicyParamsForOtherPolicyRejected: params keyed by a policy other
// than the run's never reach it, so accepting them would give two identical
// runs different content addresses; New rejects them instead.
func TestPolicyParamsForOtherPolicyRejected(t *testing.T) {
	_, err := New(WithCores(16), WithPolicy(PolicyDelta),
		WithPolicyParams(PolicyLFOC, map[string]int{"NoSuchKnob": 1, "SharedWays": -3}))
	if err == nil || !strings.Contains(err.Error(), string(PolicyLFOC)) {
		t.Fatalf("err = %v, want an error naming the lfoc params", err)
	}
}

// TestPolicyParamsOutOfRangeRejected: parameters a policy would panic on,
// run with a nonsense value, ignore or reinterpret as a default surface as
// errors from New, for every configurable policy and for bankbw's base.
func TestPolicyParamsOutOfRangeRejected(t *testing.T) {
	for _, tc := range []struct {
		policy PolicyKind
		params any
		want   string
	}{
		{PolicyDelta, map[string]int{"MinWays": 0}, "MinWays"},
		{PolicyIdeal, map[string]int{"MinWays": 0}, "MinWays"},
		{PolicyLFOC, map[string]int{"MaxClusters": 1}, "MaxClusters"},
		{PolicyCARMA, map[string]int{"LotWays": -1}, "LotWays"},
		{PolicyBankBW, map[string]int{"ThrottlePct": 101}, "ThrottlePct"},
		{PolicyBankBW, map[string]any{"Base": "delta", "BaseParams": map[string]int{"MinWays": 0}}, "MinWays"},
		// Accepted by New, then panicked mid-run.
		{PolicyLFOC, map[string]int{"SharedWays": -3}, "SharedWays"},
		{PolicyLFOC, map[string]int{"MinClusterWays": -2}, "MinClusterWays"},
		{PolicyLFOC, map[string]int{"MinClusterWays": 40}, "16 ways"},
		{PolicyIdeal, map[string]int{"MaxWays": -4}, "MaxWays"},
		// Accepted by New, then run with a negative cap.
		{PolicyCARMA, map[string]int{"MaxBudget": -5}, "MaxBudget"},
		// Unknown keys, once ignored.
		{PolicyDelta, map[string]int{"NoSuchKnob": 1}, "NoSuchKnob"},
		{PolicyBankBW, map[string]any{"Base": "lfoc", "BaseParams": map[string]int{"NoSuchKnob": 1}}, "NoSuchKnob"},
		// Explicit zeros, once read as the defaults.
		{PolicyCARMA, map[string]int{"Regen": 0}, "Regen"},
		{PolicyLFOC, map[string]int{"MaxClusters": 0}, "MaxClusters"},
		{PolicyIdeal, map[string]int{"BenefitGate": 0}, "BenefitGate"},
		{PolicyBankBW, map[string]int{"ThrottlePct": 0}, "ThrottlePct"},
	} {
		_, err := New(WithCores(16), WithPolicy(tc.policy), WithPolicyParams(tc.policy, tc.params))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: err = %v, want an error mentioning %s", tc.policy, tc.params, err, tc.want)
		}
	}
}

// TestCARMAGeometryRejected: lot geometries that do not fit the chip's
// 16-way banks — lots that do not divide the ways, or reserved lots that
// leave nothing to auction — are errors from New rather than panics when
// the policy attaches, whether CARMA runs alone or as bankbw's base.
func TestCARMAGeometryRejected(t *testing.T) {
	for _, bad := range []map[string]int{
		{"LotWays": 3},
		{"ReserveLots": 4},
		{"LotWays": 8, "ReserveLots": 2},
	} {
		for _, tc := range []struct {
			policy PolicyKind
			params any
		}{
			{PolicyCARMA, bad},
			{PolicyBankBW, map[string]any{"Base": "carma", "BaseParams": bad}},
		} {
			_, err := New(WithCores(16), WithPolicy(tc.policy), WithPolicyParams(tc.policy, tc.params))
			if err == nil || !strings.Contains(err.Error(), "carma") {
				t.Errorf("%s %v: err = %v, want a carma geometry error", tc.policy, tc.params, err)
			}
		}
	}
	// A geometry that fits still builds.
	if _, err := New(WithCores(16), WithPolicy(PolicyCARMA),
		WithPolicyParams(PolicyCARMA, map[string]int{"LotWays": 8, "ReserveLots": 1})); err != nil {
		t.Fatalf("8-way lots with one reserved: %v", err)
	}
}

// Compile-time checks that the new policies satisfy the facade aliases.
var (
	_ Policy = (*lfoc.Policy)(nil)
	_ Policy = (*carma.Policy)(nil)
	_ Policy = (*bankbw.Policy)(nil)
)
