package experiments

import (
	"fmt"

	"delta/internal/chip"
	"delta/internal/core"
	"delta/internal/metrics"
	"delta/internal/workloads"
)

// Fig12Row is one SPLASH2 benchmark's multithreaded result (Figure 12 plus
// the Table V measurement that feeds it).
type Fig12Row struct {
	App string

	// Table V reproduction: measured private-page/block percentages from
	// the pintool stand-in, next to the paper's reported values.
	PagePrivate      float64
	BlockPrivate     float64
	PaperPagePrivate float64

	// Speedups over S-NUCA (cycles of the longest-running thread, as in
	// Section IV-C).
	PrivateSpeedup  float64
	DeltaEstimate   float64 // the paper's piecewise reconstruction
	DeltaSimulated  float64 // our direct simulation of DELTA (II-E mode)
	SnucaCycles     uint64
	PrivateCycles   uint64
	DeltaSimCycles  uint64
	ReclassifyCount uint64
}

// Fig12Result aggregates the suite.
type Fig12Result struct {
	Rows []Fig12Row
	// Averages over the suite, the paper's "within 1% of both" claim.
	AvgDeltaVsSnuca   float64
	AvgDeltaVsPrivate float64
}

// roiCycles returns the cycles of the longest-running thread (the region of
// interest metric of Section IV-C).
func roiCycles(results []chip.CoreResult) uint64 {
	var max uint64
	for _, r := range results {
		if r.Cycles > max {
			max = r.Cycles
		}
	}
	return max
}

// fig12Row measures one SPLASH2 profile: the Table V privacy ratios plus
// the three policy runs. Each call builds fresh chips and generators, so
// rows are independent and the driver fans them across workers.
func fig12Row(sc Scale, app workloads.Splash2App) Fig12Row {
	row := Fig12Row{App: app.Name, PaperPagePrivate: app.PagePrivate}

	// Table V measurement (the pintool stand-in).
	page, block := app.SharedApp(16, sc.Seed).PrivateRatios(20000)
	row.PagePrivate = page * 100
	row.BlockPrivate = block * 100

	runMT := func(policy string) MixRun {
		cfg := sc.ChipConfig(16)
		// Only DELTA uses the Section II-E page classifier. The S-NUCA
		// baseline maps everything statically anyway, and the paper's
		// private baseline is a true private LLC: shared lines are
		// replicated per requester (coherence kept by the directory),
		// paying duplication instead of distance.
		cfg.Multithreaded = policy == "delta"
		p := sc.NewPolicy(policy)
		var oneProcess func(*chip.Chip)
		if d, ok := p.(*core.Delta); ok {
			// All threads belong to one process (Section II-E).
			oneProcess = func(*chip.Chip) {
				for t := 0; t < 16; t++ {
					d.SetProcess(t, 0)
				}
			}
		}
		return sc.simulate(cfg, p, app.ThreadGenerators(16, sc.Seed), false, oneProcess)
	}

	snuca, private, delta := runMT("snuca"), runMT("private"), runMT("delta")
	row.SnucaCycles = roiCycles(snuca.Results)
	row.PrivateCycles = roiCycles(private.Results)
	row.DeltaSimCycles = roiCycles(delta.Results)
	row.ReclassifyCount = delta.Chip.PageReclassify

	row.PrivateSpeedup = float64(row.SnucaCycles) / float64(row.PrivateCycles)
	row.DeltaSimulated = float64(row.SnucaCycles) / float64(row.DeltaSimCycles)

	// The paper's piecewise reconstruction: private accesses perform
	// like the private baseline, shared accesses like S-NUCA, weighted
	// by the page-privacy ratio (Section IV-C).
	estCycles := page*float64(row.PrivateCycles) + (1-page)*float64(row.SnucaCycles)
	row.DeltaEstimate = float64(row.SnucaCycles) / estCycles
	return row
}

// Fig12 runs every SPLASH2 profile on a 16-core chip under S-NUCA, private
// and DELTA (multithreaded mode), measures page/block privacy, and computes
// both the paper's piecewise estimate and the direct simulation. Profiles
// fan out across sc.Workers; row order and values match a sequential run.
func Fig12(sc Scale) Fig12Result {
	apps := workloads.Splash2Apps()
	rows := make([]Fig12Row, len(apps))
	sc.fanOut(len(apps), func(i int) string { return "fig12/" + apps[i].Name }, func(i int, asc Scale) {
		rows[i] = fig12Row(asc, apps[i])
	})
	res := Fig12Result{Rows: rows}
	sumSnuca, sumPriv := 0.0, 0.0
	for _, row := range rows {
		sumSnuca += row.DeltaEstimate
		sumPriv += row.DeltaEstimate / row.PrivateSpeedup
	}
	n := float64(len(res.Rows))
	res.AvgDeltaVsSnuca = sumSnuca / n
	res.AvgDeltaVsPrivate = sumPriv / n
	return res
}

// Table renders Figure 12 and Table V together.
func (r Fig12Result) Table() string {
	t := metrics.NewTable("Fig. 12 + Table V: SPLASH2 on a 16-core CMP (speedup vs S-NUCA)",
		"app", "page-priv% (paper)", "page-priv% (meas)", "block-priv% (meas)",
		"private", "delta-est", "delta-sim")
	for _, row := range r.Rows {
		t.AddRowf(row.App,
			fmt.Sprintf("%.1f", row.PaperPagePrivate),
			fmt.Sprintf("%.1f", row.PagePrivate),
			fmt.Sprintf("%.1f", row.BlockPrivate),
			row.PrivateSpeedup, row.DeltaEstimate, row.DeltaSimulated)
	}
	s := t.String()
	s += fmt.Sprintf("avg DELTA vs S-NUCA: %+.1f%%   avg DELTA vs private: %+.1f%%\n",
		(r.AvgDeltaVsSnuca-1)*100, (r.AvgDeltaVsPrivate-1)*100)
	return s
}
