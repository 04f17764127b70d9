package policies

import (
	"encoding/json"
	"testing"

	"delta/internal/bankbw"
	"delta/internal/carma"
	"delta/internal/central"
	"delta/internal/chip"
	"delta/internal/core"
	"delta/internal/lfoc"
	"delta/internal/trace"
)

// probes are parameter blobs each built-in must reject: out-of-range
// knobs that used to panic mid-run or run with a nonsense value, an
// unknown key, an explicit 0 on a knob that has a default, and malformed
// JSON.
var probes = []struct {
	policy, params string
}{
	{"lfoc", `{"SharedWays":-3}`},
	{"lfoc", `{"MinClusterWays":-2}`},
	{"lfoc", `{"MinClusterWays":40}`},
	{"lfoc", `{"Smoothing":0}`},
	{"ideal", `{"MaxWays":-4}`},
	{"ideal", `{"BenefitGate":0}`},
	{"carma", `{"MaxBudget":-5}`},
	{"carma", `{"Regen":0}`},
	{"bankbw", `{"MinAccesses":0}`},
	{"bankbw", `{"Base":"lfoc","BaseParams":{"SharedWays":-3}}`},
	{"delta", `{"MaxTotalWays":-1}`},
	{"delta", `{"NoSuchKnob":1}`},
	{"snuca", `{"NoSuchKnob":1}`},
	{"carma", `{"LotWays":4} {}`},
	{"ideal", `[1]`},
}

// TestBuildRejectsProbes: every probe blob is an error from Build.
func TestBuildRejectsProbes(t *testing.T) {
	for _, p := range probes {
		if _, err := Build(p.policy, BuildContext{IntervalScale: 50, LLCWays: 16,
			Params: json.RawMessage(p.params)}); err == nil {
			t.Errorf("%s %s: Build accepted it", p.policy, p.params)
		}
	}
}

// TestBuildAcceptsDefaults: every built-in builds without params, with an
// empty object and with its full default configuration restated, which
// includes the caps whose 0 means the chip's UMON limit.
func TestBuildAcceptsDefaults(t *testing.T) {
	for _, name := range Names() {
		for _, params := range []string{"", "{}", "null"} {
			if _, err := Build(name, BuildContext{LLCWays: 16, Params: json.RawMessage(params)}); err != nil {
				t.Errorf("%s %q: %v", name, params, err)
			}
		}
	}
	for name, cfg := range map[string]any{
		"delta":  core.DefaultParams(),
		"ideal":  central.DefaultIdealConfig(),
		"lfoc":   lfoc.DefaultConfig(),
		"carma":  carma.DefaultConfig(),
		"bankbw": bankbw.DefaultConfig(),
	} {
		params, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(name, BuildContext{LLCWays: 16, Params: params}); err != nil {
			t.Errorf("%s %s: %v", name, params, err)
		}
	}
}

// FuzzPolicyParams feeds arbitrary parameter blobs to every registered
// policy. Build must either return an error or produce a policy that runs
// a few quanta on a 16-core chip, under the invariant sweep, without
// panicking.
func FuzzPolicyParams(f *testing.F) {
	names := Names()
	for i := range names {
		f.Add(uint8(i), []byte(`{}`))
	}
	for _, p := range probes {
		for i, name := range names {
			if name == p.policy {
				f.Add(uint8(i), []byte(p.params))
			}
		}
	}
	f.Add(uint8(2), []byte(`{"InterInterval":1,"IntraInterval":1,"MinWays":16,"InterDeltaWays":16}`))
	f.Add(uint8(3), []byte(`{"Interval":1,"MaxWays":100000,"MinWays":16}`))
	f.Add(uint8(4), []byte(`{"Interval":1,"MaxClusters":15,"SharedWays":1,"MinClusterWays":1}`))
	f.Add(uint8(5), []byte(`{"Interval":1,"LotWays":1,"ReserveLots":15}`))
	f.Add(uint8(6), []byte(`{"Base":"carma","WindowQuanta":1,"ThrottlePct":1,"BaseParams":{"Interval":1}}`))
	f.Fuzz(func(t *testing.T, idx uint8, params []byte) {
		name := names[int(idx)%len(names)]
		ccfg := chip.DefaultConfig(16)
		ccfg.Quantum = 500
		ccfg.UmonSampleEvery = 4
		ccfg.Check = true
		pol, err := Build(name, BuildContext{IntervalScale: 4000, LLCWays: ccfg.LLCWays,
			Params: params})
		if err != nil {
			return
		}
		c := chip.New(ccfg, pol)
		defer c.Release()
		for i := 0; i < 16; i++ {
			kb := 64
			if i%2 == 0 {
				kb = 1024
			}
			gen := trace.NewShaper(trace.NewRegionGen(0, trace.Lines(kb), uint64(i)+1),
				trace.ShaperConfig{MemFraction: 0.3, Burst: 4, Seed: uint64(i) + 1})
			c.SetWorkload(i, gen, true)
		}
		c.Run(2_000, 2_000)
	})
}
