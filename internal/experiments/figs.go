package experiments

import (
	"fmt"

	"delta/internal/metrics"
	"delta/internal/workloads"
)

// Fig5Result reproduces Figures 5 (16 cores) and 9 (64 cores): per-mix
// workload performance (geometric-mean IPC) normalized to unpartitioned
// S-NUCA, for private, DELTA and the ideal centralized scheme.
type Fig5Result struct {
	Cores    int
	MixNames []string
	Private  []float64
	Delta    []float64
	Ideal    []float64

	PrivateSummary metrics.Summary
	DeltaSummary   metrics.Summary
	IdealSummary   metrics.Summary
}

// Fig5 runs all 15 mixes under the four policies on the suite's chip.
func Fig5(st *Suite) Fig5Result {
	res := Fig5Result{Cores: st.Cores}
	for _, m := range workloads.Mixes() {
		base := metrics.GeoMean(st.Run("snuca", m.Name).IPCs())
		res.MixNames = append(res.MixNames, m.Name)
		res.Private = append(res.Private, metrics.GeoMean(st.Run("private", m.Name).IPCs())/base)
		res.Delta = append(res.Delta, metrics.GeoMean(st.Run("delta", m.Name).IPCs())/base)
		res.Ideal = append(res.Ideal, metrics.GeoMean(st.Run("ideal", m.Name).IPCs())/base)
	}
	res.PrivateSummary = metrics.Summarize(res.Private)
	res.DeltaSummary = metrics.Summarize(res.Delta)
	res.IdealSummary = metrics.Summarize(res.Ideal)
	return res
}

// Table renders the figure as text.
func (r Fig5Result) Table() string {
	name := "Fig. 5"
	if r.Cores > 16 {
		name = "Fig. 9"
	}
	t := metrics.NewTable(
		fmt.Sprintf("%s: geomean IPC normalized to S-NUCA (%d cores)", name, r.Cores),
		"mix", "private", "delta", "ideal")
	for i, m := range r.MixNames {
		t.AddRowf(m, r.Private[i], r.Delta[i], r.Ideal[i])
	}
	t.AddRowf("geomean", r.PrivateSummary.Geo, r.DeltaSummary.Geo, r.IdealSummary.Geo)
	t.AddRowf("max", r.PrivateSummary.Max, r.DeltaSummary.Max, r.IdealSummary.Max)
	return t.String()
}

// Fig6Result reproduces Figure 6: fairness (ANTT, lower better) and
// throughput (STP, higher better) for DELTA and ideal centralized, computed
// against the private baseline per Section III-D.
type Fig6Result struct {
	MixNames   []string
	DeltaANTT  []float64
	IdealANTT  []float64
	DeltaSTP   []float64
	IdealSTP   []float64
	AvgANTTGap float64 // mean DELTA/ideal ANTT ratio - 1
	AvgSTPGap  float64 // mean 1 - DELTA/ideal STP ratio
}

// Fig6 derives fairness metrics from the suite's runs.
func Fig6(st *Suite) Fig6Result {
	var res Fig6Result
	anttRatio, stpRatio := 0.0, 0.0
	for _, m := range workloads.Mixes() {
		private := st.Run("private", m.Name).IPCs()
		delta := st.Run("delta", m.Name).IPCs()
		ideal := st.Run("ideal", m.Name).IPCs()
		res.MixNames = append(res.MixNames, m.Name)
		dA, iA := metrics.ANTT(delta, private), metrics.ANTT(ideal, private)
		dS, iS := metrics.STP(delta, private), metrics.STP(ideal, private)
		res.DeltaANTT = append(res.DeltaANTT, dA)
		res.IdealANTT = append(res.IdealANTT, iA)
		res.DeltaSTP = append(res.DeltaSTP, dS)
		res.IdealSTP = append(res.IdealSTP, iS)
		anttRatio += dA / iA
		stpRatio += dS / iS
	}
	n := float64(len(res.MixNames))
	res.AvgANTTGap = anttRatio/n - 1
	res.AvgSTPGap = 1 - stpRatio/n
	return res
}

// Table renders the figure as text.
func (r Fig6Result) Table() string {
	t := metrics.NewTable("Fig. 6: fairness (ANTT, lower=better) and throughput (STP, higher=better)",
		"mix", "delta ANTT", "ideal ANTT", "delta STP", "ideal STP")
	for i, m := range r.MixNames {
		t.AddRowf(m, r.DeltaANTT[i], r.IdealANTT[i], r.DeltaSTP[i], r.IdealSTP[i])
	}
	s := t.String()
	s += fmt.Sprintf("avg ANTT gap (delta vs ideal): %+.1f%%\n", r.AvgANTTGap*100)
	s += fmt.Sprintf("avg STP gap  (delta vs ideal): %+.1f%%\n", r.AvgSTPGap*100)
	return s
}

// PerAppResult reproduces Figures 7, 8, 10 and 11: per-application IPC in
// one mix for the ideal centralized and private schemes, normalized to
// DELTA. AvgWaysIdeal/Delta report the capacity the two dynamic schemes
// granted (the Fig. 7/11 allocation arguments).
type PerAppResult struct {
	MixName      string
	Cores        int
	Apps         []string
	IdealVsDelta []float64
	PrivVsDelta  []float64
	WaysIdeal    []float64
	WaysDelta    []float64
}

// PerApp runs one mix and reports per-app normalized performance.
func PerApp(st *Suite, mixName string) PerAppResult {
	delta := st.Run("delta", mixName)
	ideal := st.Run("ideal", mixName)
	private := st.Run("private", mixName)
	slots := delta.Mix.Slots(st.Cores)
	res := PerAppResult{MixName: mixName, Cores: st.Cores}
	for i := range delta.Results {
		res.Apps = append(res.Apps, slots[i].Name)
		res.IdealVsDelta = append(res.IdealVsDelta, ideal.Results[i].IPC/delta.Results[i].IPC)
		res.PrivVsDelta = append(res.PrivVsDelta, private.Results[i].IPC/delta.Results[i].IPC)
		res.WaysIdeal = append(res.WaysIdeal, ideal.Ways[i])
		res.WaysDelta = append(res.WaysDelta, delta.Ways[i])
	}
	return res
}

// Table renders per-app results; fig names follow the paper's numbering.
func (r PerAppResult) Table() string {
	name := "per-app"
	switch {
	case r.MixName == "w2" && r.Cores == 16:
		name = "Fig. 7"
	case r.MixName == "w3" && r.Cores == 16:
		name = "Fig. 8"
	case r.MixName == "w2" && r.Cores > 16:
		name = "Fig. 10"
	case r.MixName == "w13" && r.Cores > 16:
		name = "Fig. 11"
	}
	t := metrics.NewTable(
		fmt.Sprintf("%s: per-app IPC normalized to DELTA (%s, %d cores)", name, r.MixName, r.Cores),
		"core", "app", "ideal/delta", "private/delta", "ways(ideal)", "ways(delta)")
	for i, app := range r.Apps {
		t.AddRowf(fmt.Sprint(i), app, r.IdealVsDelta[i], r.PrivVsDelta[i],
			r.WaysIdeal[i], r.WaysDelta[i])
	}
	return t.String()
}
