// Command bench is the repository benchmark: four workloads that exercise the
// simulator and its service end to end, with a traced variant that breaks
// each run down by layer. See README.md.
//
// One run of one workload (the form BENCHMARK.json's command uses):
//
//	bench --workload fig5-w2-delta16 --seed 1 --seconds 20 --trace 0
//
// prints metric lines and, last, one JSON object with correct, attempted,
// failed and metrics. Without --workload it runs every workload for each
// seed in -seeds, each run in a child process, plus one traced run per
// workload, and can write the runs as a ledger (-out). -compare a.json
// b.json judges two ledgers against BENCHMARK.json; -update-golden rewrites
// golden.json.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit; the lists mirror BENCHMARK.json.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"sim_minstr_per_s", "Minstr/s"},
	{"job_p50_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"sim_ipc_geomean", "IPC"},
}

var perLayer = []metricDef{
	{"policy.build_s", "s"},
	{"chip.new_s", "s"},
	{"chip.setworkload_s", "s"},
	{"chip.fastforward_s", "s"},
	{"chip.advance_s", "s"},
	{"chip.advance_share", "ratio"},
	{"chip.quantum_us_p50", "us"},
	{"chip.quantum_us_p99", "us"},
	{"policy.tick_s", "s"},
	{"policy.tick_share", "ratio"},
	{"scenario.apply_s", "s"},
	{"snapshot.capture_s", "s"},
	{"snapshot.encode_s", "s"},
	{"snapshot.decode_s", "s"},
	{"snapshot.restore_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.restore_xfail", "count"},
	{"trace_overhead_pct", "%"},
	{"cache.l2_mpki", "MPKI"},
	{"cache.llc_hit_ratio", "ratio"},
	{"cache.llc_evictions", "count"},
	{"cache.invals", "count"},
	{"cache.bulk_walks", "count"},
	{"noc.msgs_data", "count"},
	{"noc.msgs_coherence", "count"},
	{"noc.msgs_control", "count"},
	{"noc.hops", "count"},
	{"mem.requests", "count"},
	{"mem.queue_delay_cycles", "cycles"},
	{"chip.inval_lines", "count"},
	{"chip.mask_fallbacks", "count"},
	{"chip.quanta", "count"},
	{"trace.next_ns", "ns"},
	{"trace.next_allocs", "allocs/op"},
	{"cache.l1l2_ns", "ns"},
	{"cache.l1l2_allocs", "allocs/op"},
	{"cache.llc_ns", "ns"},
	{"cache.llc_allocs", "allocs/op"},
	{"umon.access_ns", "ns"},
	{"umon.access_allocs", "allocs/op"},
	{"noc.roundtrip_ns", "ns"},
	{"noc.roundtrip_allocs", "allocs/op"},
	{"mem.access_ns", "ns"},
	{"mem.access_allocs", "allocs/op"},
	{"cbt.bank_ns", "ns"},
	{"cbt.bank_allocs", "allocs/op"},
	{"sim.event_ns", "ns"},
	{"sim.event_allocs", "allocs/op"},
	{"central.lookahead64_ms", "ms"},
	{"central.lookahead64_allocs", "allocs/op"},
	{"store.put_ms", "ms"},
	{"store.put_allocs", "allocs/op"},
	{"store.get_ms", "ms"},
	{"store.get_allocs", "allocs/op"},
	{"server.queue_ms_p50", "ms"},
	{"server.queue_ms_p90", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.run_ms_p90", "ms"},
	{"server.job_p90_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDetail records how a run's numbers were obtained; it is printed on a
// "detail " line before the result and kept in ledgers.
type runDetail struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Trace        bool               `json:"trace"`
	Quick        bool               `json:"quick,omitempty"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	SetupSamples int                `json:"setup_samples"`
	Ops          int                `json:"ops"`
	TracedOps    int                `json:"traced_ops,omitempty"`
	JobSamples   int                `json:"job_samples"`
	OpWalls      []float64          `json:"op_walls_s"` // untraced units, in run order
	Digest       string             `json:"digest"`
	DigestCheck  string             `json:"digest_check"` // ok | mismatch | unchecked
	XFail        int                `json:"restore_xfail,omitempty"`
	Errors       []string           `json:"errors,omitempty"`
	SelfS        map[string]float64 `json:"self_s,omitempty"`
}

//go:embed golden.json
var goldenJSON []byte

// golden maps workload → seed → output digest of one unit of work.
type golden map[string]map[string]string

// runTimeout bounds one run so it always exits within the 180 s contract.
const runTimeout = 170 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: every workload, each in a child process)")
		seed         = flag.Uint64("seed", 1, "input seed")
		seedList     = flag.String("seeds", "", "comma-separated seeds for the all-workload mode (default: -seed)")
		secs         = flag.Float64("seconds", 20, "measured seconds per run")
		traceFlag    = flag.Int("trace", 0, "1 reports per-layer metrics from traced runs and layer replays")
		quick        = flag.Bool("quick", false, "smoke-test sizes: 5k/5k windows, 16 batch jobs, one op per run")
		out          = flag.String("out", "", "write the all-workload runs to this ledger file")
		rev          = flag.String("rev", "", "revision recorded in the ledger (default: the build's VCS revision)")
		compare      = flag.Bool("compare", false, "compare two ledgers: -compare a.json b.json")
		updateGolden = flag.Bool("update-golden", false, "rewrite golden.json for seeds 1-3")
	)
	flag.Parse()
	ctx := context.Background()
	dir, err := benchDir()
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two ledger files"))
		}
		regressed, err := compareLedgers(os.Stdout, filepath.Join(dir, "..", "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *updateGolden:
		if err := writeGolden(ctx, dir); err != nil {
			fatal(err)
		}
	case *workloadName != "":
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		if *traceFlag != 0 && *traceFlag != 1 {
			fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag))
		}
		runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
		ctx, cancel := context.WithTimeout(ctx, runTimeout)
		defer cancel()
		res, det, err := runOne(ctx, dir, w, runCfg{Seed: *seed, Quick: *quick}, *secs, *traceFlag == 1)
		if err != nil {
			fatal(err)
		}
		printRun(os.Stdout, res, det)
	default:
		seeds := []uint64{*seed}
		if *seedList != "" {
			if seeds, err = parseSeeds(*seedList); err != nil {
				fatal(err)
			}
		}
		if err := runAll(ctx, dir, seeds, *secs, *quick, *out, *rev); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// benchDir locates the benchmark's directory: "bench" from the repository
// root, or "." from inside it.
func benchDir() (string, error) {
	for _, d := range []string{"bench", "."} {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module delta/bench\n")) {
			return d, nil
		}
	}
	return "", errors.New("run from the repository root or its bench directory")
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(f), "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(hi, 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", f)
			}
		}
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
	}
	return out, nil
}

// runOne measures one workload for one seed, with a private scratch
// directory under out/ that it removes again.
func runOne(ctx context.Context, dir string, w workload, rc runCfg, secs float64, traced bool) (runResult, runDetail, error) {
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return runResult{}, runDetail{}, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return runResult{}, runDetail{}, err
	}
	defer os.RemoveAll(tmp)
	rc.TmpDir = tmp
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return runResult{}, runDetail{}, fmt.Errorf("golden.json: %w", err)
	}
	res, det, tracers := measure(ctx, w, rc, secs, traced, g)
	if traced {
		if err := writeSpans(filepath.Join(outDir, "trace-"+w.Name+".jsonl"), tracers); err != nil {
			return runResult{}, runDetail{}, err
		}
	}
	return res, det, nil
}

// measure runs set-ups and then units of work until secs have passed (one
// unit in -quick mode). A traced run first replays each layer, then
// alternates untraced and traced units, so the tracing overhead is measured
// within the run.
func measure(ctx context.Context, w workload, rc runCfg, secs float64, traced bool, g golden) (runResult, runDetail, []*tracer) {
	start := time.Now()
	det := runDetail{Workload: w.Name, Seed: rc.Seed, Trace: traced, Quick: rc.Quick, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	res := runResult{Correct: true}
	fail := func(err error) {
		res.Failed++
		det.Errors = append(det.Errors, err.Error())
	}

	nSetup := 9
	if rc.Quick {
		nSetup = 2
	}
	var setups []float64
	for i := 0; i < nSetup; i++ {
		runtime.GC()
		d, err := w.setup(ctx, rc)
		res.Attempted++
		if err != nil {
			fail(fmt.Errorf("setup: %w", err))
			continue
		}
		setups = append(setups, d.Seconds())
	}
	det.SetupSamples = len(setups)

	var replays map[string]float64
	if traced {
		var err error
		res.Attempted++
		if replays, err = layerReplays(rc); err != nil {
			fail(err)
		}
	}

	var (
		walls, tracedWalls, rates, allocs, jobs []float64
		ipcs                                    []float64
		stages                                  []stageSample
		layers                                  []map[string]float64
		tracers                                 []*tracer
	)
	for k := 0; ; k++ {
		tracedOp := traced && k%2 == 1
		var tr *tracer
		if tracedOp {
			tr = newTracer(start, k)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := w.op(ctx, rc, tr)
		runtime.ReadMemStats(&m1)

		res.Attempted += r.Attempted
		res.Failed += r.Failed
		det.Errors = append(det.Errors, r.Errors...)
		det.XFail = max(det.XFail, r.XFail)
		switch {
		case det.Digest == "":
			det.Digest = r.Digest
			ipcs = r.IPCs
		case r.Digest != det.Digest:
			res.Attempted++
			fail(fmt.Errorf("op %d digest %s differs from the run's first %s", k, r.Digest, det.Digest))
		}
		stages = append(stages, r.Stages...)
		if tracedOp {
			tracedWalls = append(tracedWalls, r.Wall.Seconds())
			if r.Layer != nil {
				layers = append(layers, r.Layer)
			}
			tracers = append(tracers, tr)
			det.TracedOps++
		} else {
			walls = append(walls, r.Wall.Seconds())
			det.OpWalls = append(det.OpWalls, r.Wall.Seconds())
			rates = append(rates, r.Instr/r.Wall.Seconds()/1e6)
			allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			jobs = append(jobs, seconds(r.Jobs)...)
			det.Ops++
		}
		if ctx.Err() != nil {
			fail(ctx.Err())
			break
		}
		enough := det.Ops >= 1 && (!traced || det.TracedOps >= 1)
		if rc.Quick && enough {
			break
		}
		est := median(walls)
		if enough && time.Since(start).Seconds()+est > secs {
			break
		}
	}
	det.JobSamples = len(jobs)

	switch d, ok := g[w.Name][strconv.FormatUint(rc.Seed, 10)]; {
	case rc.Quick || !ok:
		det.DigestCheck = "unchecked"
	case d == det.Digest:
		det.DigestCheck = "ok"
	default:
		det.DigestCheck = "mismatch"
		res.Correct = false
		det.Errors = append(det.Errors, fmt.Sprintf("digest %s, golden.json has %s", det.Digest, d))
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	values := map[string]float64{}
	defs := endToEnd
	if traced {
		defs = perLayer
		for k, v := range replays {
			values[k] = v
		}
		for _, d := range perLayer {
			if _, ok := values[d.Name]; ok || len(layers) == 0 {
				continue
			}
			var xs []float64
			for _, l := range layers {
				xs = append(xs, l[d.Name])
			}
			if _, ok := layers[0][d.Name]; ok {
				values[d.Name] = median(xs)
			}
		}
		values["snapshot.restore_xfail"] = float64(det.XFail)
		values["trace_overhead_pct"] = 100 * (median(tracedWalls)/median(walls) - 1)
		for k, v := range stageMetrics(stages) {
			values[k] = v
		}
		det.SelfS = selfTimes(tracers)
	} else {
		values["sim_minstr_per_s"] = median(rates)
		values["job_p50_s"] = median(jobs)
		values["setup_s"] = median(setups)
		values["peak_rss_mb"] = peakRSSMiB()
		values["alloc_mb"] = median(allocs)
		values["sim_ipc_geomean"] = geomean(ipcs)
	}
	res.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			v = 0 // the layer is not exercised by this workload
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, det, tracers
}

// stageMetrics summarizes the batch workload's client-side stages: a job's
// run time is the worker's ElapsedMS, and everything else between the batch
// POST and its result line (the worker's queue, the coordinator's routing,
// status polling and result store) is queue time.
func stageMetrics(st []stageSample) map[string]float64 {
	if len(st) == 0 {
		return nil
	}
	var queue, run, job []float64
	for _, s := range st {
		arrivedMS := float64(s.Arrived.Nanoseconds()) / 1e6
		run = append(run, float64(s.RunMS))
		queue = append(queue, arrivedMS-float64(s.RunMS))
		job = append(job, s.Arrived.Seconds())
	}
	return map[string]float64{
		"server.queue_ms_p50": percentile(queue, 50),
		"server.queue_ms_p90": percentile(queue, 90),
		"server.run_ms_p50":   percentile(run, 50),
		"server.run_ms_p90":   percentile(run, 90),
		"server.job_p90_s":    percentile(job, 90),
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// printRun writes a run's metric lines, its detail line and, last, the
// result object.
func printRun(f *os.File, res runResult, det runDetail) {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(f, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "digest: %s (%s)\n", det.Digest, det.DigestCheck)
	for _, e := range det.Errors {
		fmt.Fprintln(os.Stderr, "bench: error:", e)
	}
	d, _ := json.Marshal(det)
	fmt.Fprintf(f, "detail %s\n", d)
	r, _ := json.Marshal(res)
	fmt.Fprintf(f, "%s\n", r)
}
