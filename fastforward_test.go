package delta

import "testing"

// TestFastForwardEquivalence bounds the divergence between analytical
// fast-forward and simulated warmup. The analytical models are approximations
// (coupon-collector footprints, exclusive-window L2 filtering, mixture
// interleaving composition), so results are close but not identical; the
// documented bound (DESIGN.md §10) is 6% on geomean IPC and 25% on any single
// core. Measured divergence on the w1/w4/w8 mixes is within 3.6% geomean and
// 17% worst-core across all four policies; the margin absorbs seed and mix
// drift without letting a broken seeding path slip through (a zeroed UMON or
// cold caches shift geomean IPC well over 10%).
func TestFastForwardEquivalence(t *testing.T) {
	for _, pol := range []PolicyKind{PolicySnuca, PolicyPrivate, PolicyDelta, PolicyIdeal} {
		t.Run(string(pol), func(t *testing.T) {
			run := func(ff bool) Result {
				s, err := New(
					WithPolicy(pol), WithCores(16),
					WithWarmup(60_000), WithBudget(60_000),
					WithFastForward(ff),
				)
				if err != nil {
					t.Fatal(err)
				}
				s.LoadMix("w1")
				return s.Run()
			}
			base := run(false)
			fast := run(true)
			bg, fg := base.GeoMeanIPC(), fast.GeoMeanIPC()
			if bg <= 0 || fg <= 0 {
				t.Fatalf("degenerate IPC: base %v ff %v", bg, fg)
			}
			if rel := abs(fg-bg) / bg; rel > 0.06 {
				t.Errorf("geomean IPC diverged %.1f%%: base %.4f ff %.4f", rel*100, bg, fg)
			}
			for i := range base.Cores {
				b, f := base.Cores[i].IPC, fast.Cores[i].IPC
				if b <= 0 {
					continue
				}
				if rel := abs(f-b) / b; rel > 0.25 {
					t.Errorf("core %d IPC diverged %.1f%%: base %.4f ff %.4f", i, rel*100, b, f)
				}
			}
		})
	}
}

// TestFastForwardNewPolicies is the fast-forward safety smoke for the policy
// zoo: a prefilled chip must run to completion under each new policy with the
// invariant harness on. The tight divergence bounds above stay scoped to the
// four paper schemes whose analytical models they were calibrated against.
func TestFastForwardNewPolicies(t *testing.T) {
	for _, pol := range []PolicyKind{PolicyLFOC, PolicyCARMA, PolicyBankBW} {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			t.Parallel()
			s, err := New(
				WithPolicy(pol), WithCores(16),
				WithWarmup(40_000), WithBudget(40_000),
				WithFastForward(true), WithCheck(true),
			)
			if err != nil {
				t.Fatal(err)
			}
			s.LoadMix("w1")
			res := s.Run()
			if g := res.GeoMeanIPC(); g <= 0 {
				t.Fatalf("degenerate geomean IPC %v", g)
			}
		})
	}
}

// TestFastForwardChecked runs a fast-forwarded simulation under the invariant
// harness: the prefilled caches and directory bits must satisfy the same
// inclusion/occupancy/monotonicity sweeps as simulated state (the harness
// panics on the first violation).
func TestFastForwardChecked(t *testing.T) {
	s, err := New(
		WithPolicy(PolicyDelta), WithCores(16),
		WithWarmup(30_000), WithBudget(10_000),
		WithFastForward(true), WithCheck(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	s.LoadMix("w1")
	if res := s.Run(); res.GeoMeanIPC() <= 0 {
		t.Fatal("checked fast-forward run measured nothing")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestFastForwardSnapshotRestore: a fast-forwarded run interrupted at a
// quantum boundary and restored must produce the bit-identical future of the
// uninterrupted fast-forwarded run — and, critically, the restore path must
// NOT re-seed (chip.FastForward panics on a chip that has advanced, so a
// regression here fails loudly).
func TestFastForwardSnapshotRestore(t *testing.T) {
	checkRestoreEquivalence(t, restoreCase{
		pol: PolicyDelta, mix: "w1", opts: []Option{WithFastForward(true)}, boundaries: []int{3},
	})
}
