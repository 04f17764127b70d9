package experiments

import (
	"fmt"

	"delta/internal/metrics"
	"delta/internal/policies"
	"delta/internal/workloads"
)

// MatrixRun is one policy's row of the policy × metric matrix.
type MatrixRun struct {
	Policy string
	GeoIPC float64
	// ANTT, STP and Unfairness are computed against the private run of the
	// same mix (the classic partitioning baselines, DESIGN.md §13); Jain is
	// baseline-free over the per-core IPCs.
	ANTT       float64
	STP        float64
	Unfairness float64
	Jain       float64
}

// MatrixResult is the policy × metric evaluation: every registered policy
// runs the same mix on the same chip, and each row reports all four
// system-level metrics side by side so throughput-oriented (STP), latency-
// oriented (ANTT) and fairness-oriented (Unfairness, Jain) rankings can be
// compared at a glance.
type MatrixResult struct {
	MixName string
	Cores   int
	Runs    []MatrixRun
}

// PolicyMatrix runs one mix under every registered policy and reports the
// full metric set per policy. The private run doubles as the baseline for
// the slowdown-derived metrics, mirroring the paper's methodology.
func PolicyMatrix(s Scale, mixName string, cores int) MatrixResult {
	mix := workloads.MixByName(mixName)
	names := policies.Names()
	runs := make([]MixRun, len(names))
	s.fanOut(len(names), func(i int) string { return "matrix/" + names[i] }, func(i int, ps Scale) {
		runs[i] = ps.RunMix(names[i], mix, cores)
	})
	var privateIPC []float64
	for i, name := range names {
		if name == "private" {
			privateIPC = runs[i].IPCs()
		}
	}
	res := MatrixResult{MixName: mixName, Cores: cores}
	for i, name := range names {
		ipcs := runs[i].IPCs()
		res.Runs = append(res.Runs, MatrixRun{
			Policy:     name,
			GeoIPC:     metrics.GeoMean(ipcs),
			ANTT:       metrics.ANTT(ipcs, privateIPC),
			STP:        metrics.STP(ipcs, privateIPC),
			Unfairness: metrics.Unfairness(ipcs, privateIPC),
			Jain:       metrics.JainIndex(ipcs),
		})
	}
	return res
}

// Table renders the matrix as text.
func (r MatrixResult) Table() string {
	t := metrics.NewTable(
		fmt.Sprintf("Policy matrix: %s on %d cores (ANTT/STP/unfairness vs private)",
			r.MixName, r.Cores),
		"policy", "geomean-ipc", "antt", "stp", "unfairness", "jain")
	for _, run := range r.Runs {
		t.AddRowf(run.Policy, run.GeoIPC, run.ANTT, run.STP, run.Unfairness, run.Jain)
	}
	return t.String()
}
