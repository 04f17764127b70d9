package experiments

import (
	"fmt"

	"delta/internal/central"
	"delta/internal/metrics"
	"delta/internal/noc"
	"delta/internal/workloads"
)

// Fig13Result reproduces Figure 13: the impact of reconfiguration frequency
// on the ideal centralized scheme — 1 ms-equivalent vs 100 ms-equivalent
// intervals — on five mixes containing phase-changing applications.
type Fig13Result struct {
	MixNames []string
	Fast     []float64 // geomean IPC @1ms-equivalent, normalized to S-NUCA
	Slow     []float64 // @100ms-equivalent
}

// Fig13Mixes are the five mixes of the frequency study; they contain the
// phase-changing applications (gcc, cactusADM).
var Fig13Mixes = []string{"w1", "w2", "w5", "w7", "w13"}

// Fig13 runs the frequency comparison on a 16-core chip. Each mix's three
// runs stay together on one worker (they share the S-NUCA baseline); the
// five mixes fan out across sc.Workers.
func Fig13(sc Scale) Fig13Result {
	fast := make([]float64, len(Fig13Mixes))
	slow := make([]float64, len(Fig13Mixes))
	sc.fanOut(len(Fig13Mixes), func(i int) string { return "fig13/" + Fig13Mixes[i] }, func(i int, msc Scale) {
		m := workloads.MixByName(Fig13Mixes[i])
		base := metrics.GeoMean(msc.RunMix("snuca", m, 16).IPCs())
		fast[i] = metrics.GeoMean(msc.RunMix("ideal", m, 16).IPCs()) / base
		slow[i] = metrics.GeoMean(msc.RunMix("ideal-slow", m, 16).IPCs()) / base
	})
	return Fig13Result{MixNames: append([]string(nil), Fig13Mixes...), Fast: fast, Slow: slow}
}

// Table renders the figure.
func (r Fig13Result) Table() string {
	t := metrics.NewTable("Fig. 13: reconfiguration frequency (ideal centralized, 16 cores, vs S-NUCA)",
		"mix", "1ms-equivalent", "100ms-equivalent")
	for i, m := range r.MixNames {
		t.AddRowf(m, r.Fast[i], r.Slow[i])
	}
	return t.String()
}

// TableVIResult reproduces Table VI: per-invocation cost of the centralized
// allocation algorithms as core count grows (16 ways per core), measured on
// this machine, plus the paper's reference numbers for shape comparison.
type TableVIResult struct {
	Cores     []int
	Lookahead []float64 // ms per invocation
	Peekahead []float64
}

// PaperTableVI holds the paper's reported milliseconds for reference.
var PaperTableVI = map[string][]float64{
	"lookahead": {0.02, 0.05, 0.46, 5.32, 73.07, 1230},
	"peekahead": {0.03, 0.07, 0.23, 0.89, 3.34, 13.12},
}

// TableVI times both allocators for 2..64 cores.
func TableVI(maxCores int, seed uint64) TableVIResult {
	var res TableVIResult
	for n := 2; n <= maxCores; n *= 2 {
		la := central.TimeAllocator(central.Lookahead, n, 16, seed)
		pa := central.TimeAllocator(central.Peekahead, n, 16, seed)
		res.Cores = append(res.Cores, n)
		res.Lookahead = append(res.Lookahead, la.PerCall.Seconds()*1000)
		res.Peekahead = append(res.Peekahead, pa.PerCall.Seconds()*1000)
	}
	return res
}

// Table renders the measured and reference numbers.
func (r TableVIResult) Table() string {
	t := metrics.NewTable("Table VI: allocator cost in ms per invocation (16 ways/core)",
		"cores", "lookahead(meas)", "peekahead(meas)", "lookahead(paper)", "peekahead(paper)")
	for i, n := range r.Cores {
		paperIdx := i
		lp, pp := "-", "-"
		if paperIdx < len(PaperTableVI["lookahead"]) {
			lp = fmt.Sprintf("%.2f", PaperTableVI["lookahead"][paperIdx])
			pp = fmt.Sprintf("%.2f", PaperTableVI["peekahead"][paperIdx])
		}
		t.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%.4f", r.Lookahead[i]),
			fmt.Sprintf("%.4f", r.Peekahead[i]),
			lp, pp)
	}
	return t.String()
}

// OverheadResult reproduces the Section IV-E2/IV-E3 analysis: DELTA's
// control-message and invalidation overheads measured during a mix run.
type OverheadResult struct {
	MixName string

	DataMsgs       uint64
	CoherenceMsgs  uint64
	ControlMsgs    uint64
	ControlPercent float64

	ChallengesSent uint64
	GainUpdates    uint64
	IntraMoves     uint64
	Expansions     uint64
	Retreats       uint64
	InvalLines     uint64
	InvalPerExp    float64
}

// Overheads runs one mix under DELTA and extracts the traffic breakdown.
func Overheads(sc Scale, mixName string) OverheadResult {
	run := sc.RunMix("delta", workloads.MixByName(mixName), 16)
	res := OverheadResult{
		MixName:        mixName,
		DataMsgs:       run.Net.Messages[noc.ClassData],
		CoherenceMsgs:  run.Net.Messages[noc.ClassCoherence],
		ControlMsgs:    run.Net.Messages[noc.ClassControl],
		ControlPercent: run.Net.ControlFraction() * 100,
	}
	st := run.Delta
	res.ChallengesSent = st.ChallengesSent
	res.GainUpdates = st.GainUpdates
	res.IntraMoves = st.IntraMoves
	res.Expansions = st.Expansions
	res.Retreats = st.Retreats
	res.InvalLines = st.InvalLines
	if st.Expansions+st.Retreats > 0 {
		res.InvalPerExp = float64(st.InvalLines) / float64(st.Expansions+st.Retreats)
	}
	return res
}

// Table renders the overhead analysis.
func (r OverheadResult) Table() string {
	t := metrics.NewTable(fmt.Sprintf("Sec. IV-E: DELTA overheads (%s, 16 cores)", r.MixName),
		"counter", "value")
	t.AddRowf("data messages", fmt.Sprint(r.DataMsgs))
	t.AddRowf("coherence messages", fmt.Sprint(r.CoherenceMsgs))
	t.AddRowf("control messages", fmt.Sprint(r.ControlMsgs))
	t.AddRowf("control share %", fmt.Sprintf("%.3f", r.ControlPercent))
	t.AddRowf("challenges sent", fmt.Sprint(r.ChallengesSent))
	t.AddRowf("gain updates", fmt.Sprint(r.GainUpdates))
	t.AddRowf("intra-bank moves", fmt.Sprint(r.IntraMoves))
	t.AddRowf("expansions", fmt.Sprint(r.Expansions))
	t.AddRowf("retreats", fmt.Sprint(r.Retreats))
	t.AddRowf("invalidated lines", fmt.Sprint(r.InvalLines))
	t.AddRowf("invals per reconfig", fmt.Sprintf("%.1f", r.InvalPerExp))
	return t.String()
}
