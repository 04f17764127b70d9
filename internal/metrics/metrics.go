// Package metrics implements the paper's evaluation metrics (Section III-D):
// per-workload performance as the geometric mean of application IPCs,
// average normalized turnaround time (ANTT) and system throughput (STP), both
// normalized against the private-cache baseline per Eyerman & Eeckhout. It
// also provides the plain-text table renderer the benchmark harness uses to
// print paper-style rows.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of the values; it panics on an empty or
// non-positive input because a silent zero would corrupt speedup reports.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		panic("metrics: geomean of nothing")
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			panic(fmt.Sprintf("metrics: non-positive value %v in geomean", v))
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// Speedups divides each IPC by its baseline counterpart.
func Speedups(ipc, base []float64) []float64 {
	if len(ipc) != len(base) {
		panic("metrics: speedup length mismatch")
	}
	out := make([]float64, len(ipc))
	for i := range ipc {
		if base[i] <= 0 {
			panic(fmt.Sprintf("metrics: non-positive baseline IPC at %d", i))
		}
		out[i] = ipc[i] / base[i]
	}
	return out
}

// ANTT is the average normalized turnaround time (lower is better):
// (1/N) Σ CPI_i / CPI_i,private.
func ANTT(ipc, privateIPC []float64) float64 {
	if len(ipc) != len(privateIPC) || len(ipc) == 0 {
		panic("metrics: ANTT length mismatch")
	}
	sum := 0.0
	for i := range ipc {
		if ipc[i] <= 0 || privateIPC[i] <= 0 {
			panic("metrics: non-positive IPC in ANTT")
		}
		// CPI_i / CPI_private == IPC_private / IPC_i.
		sum += privateIPC[i] / ipc[i]
	}
	return sum / float64(len(ipc))
}

// STP is the system throughput (higher is better):
// Σ CPI_i,private / CPI_i == Σ IPC_i / IPC_i,private.
func STP(ipc, privateIPC []float64) float64 {
	if len(ipc) != len(privateIPC) || len(ipc) == 0 {
		panic("metrics: STP length mismatch")
	}
	sum := 0.0
	for i := range ipc {
		if ipc[i] <= 0 || privateIPC[i] <= 0 {
			panic("metrics: non-positive IPC in STP")
		}
		sum += ipc[i] / privateIPC[i]
	}
	return sum
}

// Unfairness is the max/min ratio of per-application slowdowns relative to
// the private baseline (Eyerman & Eeckhout; 1.0 = perfectly fair, higher is
// worse): max_i(CPI_i/CPI_i,private) / min_i(CPI_i/CPI_i,private). Dynamic
// churn scenarios use it to show whether a policy starves late arrivals.
func Unfairness(ipc, privateIPC []float64) float64 {
	if len(ipc) != len(privateIPC) || len(ipc) == 0 {
		panic("metrics: unfairness length mismatch")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range ipc {
		if ipc[i] <= 0 || privateIPC[i] <= 0 {
			panic("metrics: non-positive IPC in unfairness")
		}
		s := privateIPC[i] / ipc[i] // slowdown = CPI_i / CPI_i,private
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return hi / lo
}

// JainIndex is Jain's fairness index over the values (typically per-core
// IPCs or speedups): (Σx)² / (n·Σx²), in (0,1] with 1 = all equal. Unlike
// Unfairness it needs no baseline, so churn campaigns can report it for
// windows where a private reference does not exist (mid-scenario membership
// differs from any static run).
func JainIndex(vals []float64) float64 {
	if len(vals) == 0 {
		panic("metrics: Jain index of nothing")
	}
	sum, sumSq := 0.0, 0.0
	for _, v := range vals {
		if v < 0 {
			panic(fmt.Sprintf("metrics: negative value %v in Jain index", v))
		}
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1 // all zero: degenerate but equal
	}
	return sum * sum / (float64(len(vals)) * sumSq)
}

// Summary holds min/geomean/max of a speedup series, the numbers the paper
// quotes ("improves performance by 9% on average, up to 16%").
type Summary struct {
	Min, Geo, Max float64
}

// Summarize computes a Summary.
func Summarize(speedups []float64) Summary {
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range speedups {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Geo = GeoMean(speedups)
	return s
}

// Table is a simple fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count panic.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("metrics: row has %d cells, table has %d columns",
			len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf formats each value with %v-ish defaults: floats as %.3f.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(row...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}
