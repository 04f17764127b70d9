package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// ledger is a set of runs of one revision, the unit -compare judges.
type ledger struct {
	Date       string      `json:"date"`
	Rev        string      `json:"rev"`
	GoVersion  string      `json:"go_version"`
	CPU        string      `json:"cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seconds    float64     `json:"seconds"`
	Quick      bool        `json:"quick,omitempty"`
	Runs       []ledgerRun `json:"runs"`
}

type ledgerRun struct {
	Result runResult `json:"result"`
	Detail runDetail `json:"detail"`
}

// runAll runs every workload once per seed and then once traced (with the
// first seed), each run in a child process of this binary so peak memory and
// GC state belong to one workload.
func runAll(ctx context.Context, dir string, seeds []uint64, secs float64, quick bool, out, rev string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if rev == "" {
		rev = buildRevision()
	}
	led := ledger{Date: time.Now().UTC().Format("2006-01-02"), Rev: rev, GoVersion: runtime.Version(),
		CPU: cpuModel(), GOMAXPROCS: min(2, runtime.NumCPU()), Seconds: secs, Quick: quick}
	type job struct {
		seed  uint64
		trace bool
	}
	var plan []job
	for _, s := range seeds {
		plan = append(plan, job{s, false})
	}
	plan = append(plan, job{seeds[0], true})
	for _, j := range plan {
		for _, w := range allWorkloads {
			args := []string{"--workload", w.Name, "--seed", strconv.FormatUint(j.seed, 10),
				"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", "0"}
			if j.trace {
				args[len(args)-1] = "1"
			}
			if quick {
				args = append(args, "--quick")
			}
			run, err := runChild(ctx, exe, args)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, j.seed, err)
			}
			fmt.Fprintf(os.Stderr, "bench: %-16s seed %-3d trace %-5v correct=%v attempted=%d failed=%d digest=%s (%s)\n",
				w.Name, j.seed, j.trace, run.Result.Correct, run.Result.Attempted, run.Result.Failed,
				run.Detail.Digest, run.Detail.DigestCheck)
			led.Runs = append(led.Runs, run)
		}
	}
	printLedger(os.Stdout, led)
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// runChild runs one workload in a child process and parses its output.
func runChild(ctx context.Context, exe string, args []string) (ledgerRun, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(min(2, runtime.NumCPU())))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return ledgerRun{}, err
	}
	var run ledgerRun
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "detail "); ok {
			if err := json.Unmarshal([]byte(d), &run.Detail); err != nil {
				return run, fmt.Errorf("detail line: %w", err)
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
		return run, fmt.Errorf("result line: %w", err)
	}
	return run, nil
}

// buildRevision is the VCS revision stamped into the binary, if any.
func buildRevision() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value[:min(7, len(s.Value))]
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// series gathers one metric's values over a ledger's runs of a workload.
func series(led ledger, workload string, trace bool, name string) []float64 {
	var xs []float64
	for _, r := range led.Runs {
		if r.Detail.Workload != workload || r.Detail.Trace != trace {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// printLedger prints each end-to-end metric's median and quartiles over the
// seeds, then the traced runs' per-layer metrics.
func printLedger(w io.Writer, led ledger) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tmedian\tq1\tq3\tn\tunit\n")
	for _, wl := range allWorkloads {
		for _, d := range endToEnd {
			xs := series(led, wl.Name, false, d.Name)
			q1, med, q3 := quartiles(xs)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\n", wl.Name, d.Name, med, q1, q3, len(xs), d.Unit)
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	fmt.Fprintf(tw, "metric")
	for _, wl := range allWorkloads {
		fmt.Fprintf(tw, "\t%s", wl.Name)
	}
	fmt.Fprintf(tw, "\tunit\n")
	for _, d := range perLayer {
		fmt.Fprintf(tw, "%s", d.Name)
		for _, wl := range allWorkloads {
			fmt.Fprintf(tw, "\t%.6g", median(series(led, wl.Name, true, d.Name)))
		}
		fmt.Fprintf(tw, "\t%s\n", d.Unit)
	}
	tw.Flush()
}

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readLedger(path string) (ledger, error) {
	var led ledger
	data, err := os.ReadFile(path)
	if err != nil {
		return led, err
	}
	if err := json.Unmarshal(data, &led); err != nil {
		return led, fmt.Errorf("%s: %w", path, err)
	}
	return led, nil
}

// compareLedgers judges ledger b (the change) against a (the parent) for
// every end-to-end metric and workload. A metric whose spread (quartile
// distance over median) exceeds its bound on either side is unresolved
// unless every run of one side beats every run of the other; otherwise b
// regresses when its median is worse by more than the bound. A gain is
// claimed only when b wins at least 9 of 10 pairs (runs paired in order,
// ties counting for neither) and the medians differ by more than a's
// quartile distance. It reports whether any metric regressed.
func compareLedgers(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readLedger(aPath)
	if err != nil {
		return false, err
	}
	b, err := readLedger(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s %s (%d runs)\nb: %s %s (%d runs)\n\n", a.Rev, a.Date, len(a.Runs), b.Rev, b.Date, len(b.Runs))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta median [q1, q3]\tb median [q1, q3]\tchange\tspread a/b\tbound\tpairs won\tverdict\n")
	regressed := false
	for _, wl := range allWorkloads {
		for _, m := range spec.EndToEnd {
			xa, xb := series(a, wl.Name, false, m.Name), series(b, wl.Name, false, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\tmissing\n", wl.Name, m.Name)
				continue
			}
			v := judge(xa, xb, m.Better == "higher", m.Bound)
			if v.verdict == "regression" {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.2f%%\t%.3f/%.3f\t%.2f\t%d/%d\t%s\n",
				wl.Name, m.Name, v.a[1], v.a[0], v.a[2], v.b[1], v.b[0], v.b[2], 100*v.change,
				v.spreadA, v.spreadB, m.Bound, v.wins, v.pairs, v.verdict)
		}
	}
	return regressed, tw.Flush()
}

type judgement struct {
	a, b             [3]float64 // q1, median, q3
	change           float64    // (b - a) / a on the medians
	spreadA, spreadB float64
	wins, pairs      int
	verdict          string
}

func judge(xa, xb []float64, higher bool, bound float64) judgement {
	var v judgement
	v.a[0], v.a[1], v.a[2] = quartiles(xa)
	v.b[0], v.b[1], v.b[2] = quartiles(xb)
	spread := func(q [3]float64) float64 { return ratio(q[2]-q[0], math.Abs(q[1])) }
	v.spreadA, v.spreadB = spread(v.a), spread(v.b)
	v.change = ratio(v.b[1]-v.a[1], math.Abs(v.a[1]))
	better := func(x, y float64) bool { // x better than y
		if higher {
			return x > y
		}
		return x < y
	}
	worse := v.change // how much worse b's median is, as a share of a's
	if higher {
		worse = -v.change
	}
	v.pairs = min(len(xa), len(xb))
	for i := 0; i < v.pairs; i++ {
		if better(xb[i], xa[i]) {
			v.wins++
		}
	}
	allBetter, allWorse := true, true
	for _, x := range xb {
		for _, y := range xa {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	switch {
	case v.spreadA > bound || v.spreadB > bound:
		switch {
		case allBetter:
			v.verdict = "better (every run)"
		case allWorse:
			v.verdict = "regression"
		default:
			v.verdict = "unresolved"
		}
	case worse > bound:
		v.verdict = "regression"
	case 10*v.wins >= 9*v.pairs && v.pairs > 0 && math.Abs(v.b[1]-v.a[1]) > v.a[2]-v.a[0]:
		v.verdict = "gain"
	default:
		v.verdict = "within bound"
	}
	return v
}

// writeGolden runs one unit of every workload for seeds 1-3 and records
// their digests in golden.json.
func writeGolden(ctx context.Context, dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Join(dir, "out"), "golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	g := golden{}
	for _, w := range allWorkloads {
		g[w.Name] = map[string]string{}
		for seed := uint64(1); seed <= 3; seed++ {
			r := w.op(ctx, runCfg{Seed: seed, TmpDir: tmp}, nil)
			if r.Failed > 0 {
				return fmt.Errorf("%s seed %d: %s", w.Name, seed, strings.Join(r.Errors, "; "))
			}
			g[w.Name][strconv.FormatUint(seed, 10)] = r.Digest
			fmt.Fprintf(os.Stderr, "bench: %s seed %d digest %s\n", w.Name, seed, r.Digest)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "golden.json"), append(data, '\n'), 0o644); err != nil {
		return errors.New("write golden.json: " + err.Error())
	}
	return nil
}
