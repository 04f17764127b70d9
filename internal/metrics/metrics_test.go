package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean = %v", got)
	}
	if got := GeoMean([]float64{3}); math.Abs(got-3) > 1e-12 {
		t.Fatalf("singleton geomean = %v", got)
	}
}

func TestGeoMeanPanics(t *testing.T) {
	for _, in := range [][]float64{nil, {1, 0}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", in)
				}
			}()
			GeoMean(in)
		}()
	}
}

func TestSpeedups(t *testing.T) {
	s := Speedups([]float64{2, 3}, []float64{1, 6})
	if s[0] != 2 || s[1] != 0.5 {
		t.Fatalf("speedups %v", s)
	}
}

func TestANTTAndSTPIdentityAtBaseline(t *testing.T) {
	ipc := []float64{1.2, 0.4, 2.5}
	if got := ANTT(ipc, ipc); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ANTT at baseline = %v", got)
	}
	if got := STP(ipc, ipc); math.Abs(got-3) > 1e-12 {
		t.Fatalf("STP at baseline = %v", got)
	}
}

func TestANTTDirection(t *testing.T) {
	private := []float64{1, 1}
	slower := []float64{0.5, 0.5}
	faster := []float64{2, 2}
	if ANTT(slower, private) <= ANTT(faster, private) {
		t.Fatal("ANTT should be higher (worse) for slower runs")
	}
	if STP(slower, private) >= STP(faster, private) {
		t.Fatal("STP should be lower for slower runs")
	}
}

func TestUnfairness(t *testing.T) {
	private := []float64{1, 1, 1}
	if got := Unfairness(private, private); math.Abs(got-1) > 1e-12 {
		t.Fatalf("unfairness at baseline = %v, want 1", got)
	}
	// Slowdowns 1, 2, 4 → max/min = 4.
	ipc := []float64{1, 0.5, 0.25}
	if got := Unfairness(ipc, private); math.Abs(got-4) > 1e-12 {
		t.Fatalf("unfairness = %v, want 4", got)
	}
	// Uniform scaling is fair: every core slowed 2x is still unfairness 1.
	half := []float64{0.5, 0.5, 0.5}
	if got := Unfairness(half, private); math.Abs(got-1) > 1e-12 {
		t.Fatalf("uniform slowdown unfairness = %v, want 1", got)
	}
}

func TestUnfairnessPanics(t *testing.T) {
	for _, tc := range []struct{ ipc, base []float64 }{
		{nil, nil},
		{[]float64{1}, []float64{1, 2}},
		{[]float64{0}, []float64{1}},
		{[]float64{1}, []float64{-1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v/%v", tc.ipc, tc.base)
				}
			}()
			Unfairness(tc.ipc, tc.base)
		}()
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{3, 3, 3, 3}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal values Jain = %v, want 1", got)
	}
	// One active of n: index = 1/n.
	if got := JainIndex([]float64{5, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single-winner Jain = %v, want 0.25", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Fatalf("all-zero Jain = %v, want the degenerate 1", got)
	}
	// Scale invariance.
	a := JainIndex([]float64{1, 2, 3})
	b := JainIndex([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("Jain not scale invariant: %v vs %v", a, b)
	}
}

func TestJainIndexPanics(t *testing.T) {
	for _, in := range [][]float64{nil, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", in)
				}
			}()
			JainIndex(in)
		}()
	}
}

func TestJainIndexBounds(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Fold into a realistic IPC-like range; squaring near-MaxFloat64
			// inputs overflows, which is out of scope for the metric.
			vals = append(vals, math.Mod(math.Abs(v), 1e6))
		}
		if len(vals) == 0 {
			return true
		}
		j := JainIndex(vals)
		return j > 0 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{0.9, 1.0, 1.21})
	if s.Min != 0.9 || s.Max != 1.21 {
		t.Fatalf("summary %+v", s)
	}
	if s.Geo < 1.0 || s.Geo > 1.05 {
		t.Fatalf("geo %v", s.Geo)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "mix", "delta", "ideal")
	tb.AddRowf("w1", 1.09, 1.12)
	tb.AddRow("w2", "1.050", "1.080")
	out := tb.String()
	if !strings.Contains(out, "## demo") || !strings.Contains(out, "w1") ||
		!strings.Contains(out, "1.090") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines", len(lines))
	}
}

func TestTablePanicsOnRaggedRow(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow("only-one")
}

// Property: geomean lies between min and max; scaling inputs scales the
// geomean linearly.
func TestGeoMeanProperties(t *testing.T) {
	f := func(raw []uint16, scale uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		min, max := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			vals[i] = float64(r%1000)/100 + 0.01
			if vals[i] < min {
				min = vals[i]
			}
			if vals[i] > max {
				max = vals[i]
			}
		}
		g := GeoMean(vals)
		if g < min-1e-9 || g > max+1e-9 {
			return false
		}
		k := float64(scale%9) + 1
		scaled := make([]float64, len(vals))
		for i := range vals {
			scaled[i] = vals[i] * k
		}
		return math.Abs(GeoMean(scaled)-g*k) < 1e-9*k*math.Max(1, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
