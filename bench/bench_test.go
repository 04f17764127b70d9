package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestQuickRun runs every workload at -quick size, untraced twice and traced
// once, and checks that each run prints exactly the metrics BENCHMARK.json
// names, with their units, and that the output digests repeat.
func TestQuickRun(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
	ctx := context.Background()
	rc := runCfg{Seed: 1, Quick: true, TmpDir: t.TempDir()}
	for _, w := range allWorkloads {
		var digests []string
		for _, traced := range []bool{false, false, true} {
			res, det, _ := measure(ctx, w, rc, 0, traced, golden{})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%q",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, det.Errors)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", w.Name, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
			digests = append(digests, det.Digest)
		}
		if digests[0] != digests[1] || digests[0] != digests[2] {
			t.Errorf("%s: digests differ across runs of one seed: %q", w.Name, digests)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	shift := func(f float64) []float64 { return scaled(base, f) }
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", shift(1), false, "within bound"},
		{"slower", shift(1.2), false, "regression"},
		{"faster", shift(0.9), false, "gain"},
		{"higher is better", shift(0.8), true, "regression"},
	} {
		if v := judge(base, c.b, c.higher, 0.1); v.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, v.verdict, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if v := judge(base, noisy, false, 0.1); v.verdict != "unresolved" {
		t.Errorf("noisy: verdict %q, want unresolved", v.verdict)
	}
}

// scaled multiplies every value by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
