package experiments

import (
	"delta/internal/chip"
	"delta/internal/core"
	"delta/internal/metrics"
	"delta/internal/workloads"
)

// AblationVariant is one modified DELTA configuration isolating a design
// choice that Section II motivates (plus the stabilization extensions this
// reproduction documents in DESIGN.md §6).
type AblationVariant struct {
	Name   string
	Why    string
	Mutate func(*core.Params, *chip.Config)
}

// AblationVariants enumerates the studied design choices.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{
			Name: "baseline",
			Why:  "full DELTA as configured",
			Mutate: func(*core.Params, *chip.Config) {
			},
		},
		{
			Name: "no-distance-penalty",
			Why:  "drop the (l+1) divisor of Eq. 1: challenges ignore locality",
			Mutate: func(p *core.Params, _ *chip.Config) {
				p.DistancePenalty = false
			},
		},
		{
			Name: "no-pain-defense",
			Why:  "challenged homes defend with gain instead of pain",
			Mutate: func(p *core.Params, _ *chip.Config) {
				p.PainDefense = false
				p.PainDefenseIntra = false
			},
		},
		{
			Name: "no-hysteresis",
			Why:  "strict Algorithm 1/2 comparisons: margins, residency and cooldown off",
			Mutate: func(p *core.Params, _ *chip.Config) {
				p.IntraMargin = 1
				p.ChallengeMargin = 1
				p.ResidencyIntraEpochs = 0
				p.RetreatCooldownEpochs = 0
			},
		},
		{
			Name: "no-smoothing",
			Why:  "raw per-epoch UMON windows instead of the EWMA",
			Mutate: func(p *core.Params, _ *chip.Config) {
				p.Smoothing = 1
			},
		},
		{
			Name: "contiguous-cbt",
			Why:  "paper-literal contiguous range tables instead of minimal-move updates",
			Mutate: func(p *core.Params, _ *chip.Config) {
				p.ContiguousCBT = true
			},
		},
		{
			Name: "exact-umon",
			Why:  "per-way UMON counters instead of the coarse 4-way granularity",
			Mutate: func(_ *core.Params, c *chip.Config) {
				c.UmonGranularity = 1
			},
		},
	}
}

// AblationResult is one variant's outcome on one mix.
type AblationResult struct {
	Variant    string
	GeoIPC     float64
	VsBaseline float64
	InvalLines uint64
	Expansions uint64
	Retreats   uint64
}

// Ablations runs every variant on the given mix and normalizes to the
// baseline variant. Variants are independent simulations, so they fan out
// across sc.Workers; normalization happens after the fan-out, against
// whichever variant is named "baseline".
func Ablations(sc Scale, mixName string) []AblationResult {
	mix := workloads.MixByName(mixName)
	variants := AblationVariants()
	out := make([]AblationResult, len(variants))
	sc.fanOut(len(variants), func(i int) string { return "ablation/" + variants[i].Name }, func(i int, vsc Scale) {
		params := core.DefaultParams().Scale(intervalScale)
		ccfg := vsc.ChipConfig(16)
		variants[i].Mutate(&params, &ccfg)
		run := vsc.simulate(ccfg, core.New(params), mix.Generators(16, vsc.Seed), true, nil)
		out[i] = AblationResult{
			Variant:    variants[i].Name,
			GeoIPC:     metrics.GeoMean(run.IPCs()),
			InvalLines: run.Delta.InvalLines,
			Expansions: run.Delta.Expansions,
			Retreats:   run.Delta.Retreats,
		}
	})
	base := 0.0
	for i := range out {
		if variants[i].Name == "baseline" {
			base = out[i].GeoIPC
		}
		out[i].VsBaseline = out[i].GeoIPC / base
	}
	return out
}

// AblationTable renders the study.
func AblationTable(results []AblationResult, mixName string) string {
	t := metrics.NewTable("Ablations: DELTA design choices on "+mixName+" (16 cores)",
		"variant", "geomean IPC", "vs baseline", "inval lines", "expansions", "retreats")
	for _, r := range results {
		t.AddRowf(r.Variant, r.GeoIPC, r.VsBaseline,
			int(r.InvalLines), int(r.Expansions), int(r.Retreats))
	}
	return t.String()
}
