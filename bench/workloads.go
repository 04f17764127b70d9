package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"delta"
	"delta/internal/experiments"
	"delta/internal/fabric"
	"delta/internal/server"
	"delta/internal/server/api"
	"delta/internal/server/client"
)

// runCfg is what every workload derives its inputs from.
type runCfg struct {
	Seed uint64
	// Quick shrinks every unit of work to a smoke-test size (5k/5k windows,
	// 16 batch jobs); its digests are never checked against golden.json.
	Quick bool
	// TmpDir holds the batch workload's result and checkpoint directories.
	TmpDir string
}

// workload is one benchmark input set. setup is one sample of the set-up a
// user pays before the first result (setup_s); op is one unit of work.
type workload struct {
	Name  string
	setup func(ctx context.Context, rc runCfg) (time.Duration, error)
	op    func(ctx context.Context, rc runCfg, tr *tracer) opResult
}

// opResult is what one unit of work produced.
type opResult struct {
	Wall      time.Duration
	Jobs      []time.Duration // per-result latency from the op's start (or submit)
	Instr     float64         // simulated instructions delivered
	IPCs      []float64       // per-result geomean IPC
	Digest    string          // output digest; equal for equal (workload, seed)
	Attempted int
	Failed    int
	// XFail counts checkpoint restores that hit the known cbt.FromSnapshot
	// defect (see README.md); they are neither attempted nor failed.
	XFail  int
	Errors []string
	// Stages holds the batch workload's client-side stage samples.
	Stages []stageSample
	// Layer holds the traced run's span totals and public counters.
	Layer map[string]float64
}

func (r *opResult) fail(err error) {
	r.Failed++
	r.Errors = append(r.Errors, err.Error())
}

// allWorkloads is the benchmark's workload list, in BENCHMARK.json order;
// README.md and BENCHMARK.json give the reason for each.
var allWorkloads = []workload{
	simWorkload("fig5-w2-delta16", fig5Specs, 1),
	simWorkload("paper64-w13", paper64Specs, 2),
	simWorkload("churn16-ckpt", churnSpecs, 1),
	{Name: "fig5-batch", setup: setupFleet, op: batchOp},
}

// simWorkload runs a unit's simulations on the given number of goroutines.
func simWorkload(name string, specs func(runCfg) []simSpec, workers int) workload {
	return workload{
		Name: name,
		setup: func(_ context.Context, rc runCfg) (time.Duration, error) {
			return setupSims(specs(rc))
		},
		op: func(ctx context.Context, rc runCfg, tr *tracer) opResult {
			return simOp(ctx, specs(rc), workers, tr)
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- simulator workloads ----------------------------------------------------

// simSpec is one facade simulation inside a unit of work.
type simSpec struct {
	Policy         string
	Cores          int
	Mix            string
	Warmup, Budget uint64
	Seed           uint64
	// Churn attaches experiments.ChurnScenario, fast-forward warmup and an
	// auto-checkpoint every snapshotEvery quanta; the op then restores the
	// last checkpoint and resumes it to completion.
	Churn bool
}

const snapshotEvery = 64

// quickWindow is the per-core warmup and budget of every -quick simulation.
const quickWindow = 5_000

func fig5Specs(rc runCfg) []simSpec {
	w, b := uint64(100_000), uint64(80_000) // experiments.QuickScale
	if rc.Quick {
		w, b = quickWindow, quickWindow
	}
	return []simSpec{{Policy: "delta", Cores: 16, Mix: "w2", Warmup: w, Budget: b, Seed: rc.Seed}}
}

func paper64Specs(rc runCfg) []simSpec {
	// 30% of QuickScale().For64(): ideal still reconfigures every 80k cycles,
	// so its tick keeps the same share of a run.
	w, b := uint64(15_000), uint64(12_000)
	if rc.Quick {
		w, b = quickWindow, quickWindow
	}
	var out []simSpec
	for _, p := range experiments.PaperPolicies {
		out = append(out, simSpec{Policy: p, Cores: 64, Mix: "w13", Warmup: w, Budget: b, Seed: rc.Seed})
	}
	return out
}

func churnSpecs(rc runCfg) []simSpec {
	// Long enough that every scripted event fires and several checkpoints
	// are taken.
	w, b := uint64(30_000), uint64(24_000)
	if rc.Quick {
		w, b = quickWindow, quickWindow
	}
	var out []simSpec
	for _, p := range delta.Policies() {
		out = append(out, simSpec{Policy: p, Cores: 16, Mix: "w2", Warmup: w, Budget: b, Seed: rc.Seed, Churn: true})
	}
	return out
}

// config is the facade configuration of the simulation, defaults resolved.
func (sp simSpec) config() delta.Config {
	cfg := delta.Config{
		Cores:              sp.Cores,
		Policy:             delta.PolicyKind(sp.Policy),
		WarmupInstructions: sp.Warmup,
		BudgetInstructions: sp.Budget,
		Seed:               sp.Seed,
	}
	if sp.Churn {
		cfg.Scenario = experiments.ChurnScenario()
		cfg.FastForward = true
		cfg.SnapshotEvery = snapshotEvery
	}
	return cfg.Canonical()
}

// instructions is the simulated work the run delivers: every core's warmup
// plus measured window.
func (sp simSpec) instructions() float64 {
	return float64(sp.Cores) * float64(sp.Warmup+sp.Budget)
}

// newSim builds and loads a facade simulator, returning the set-up time.
func newSim(sp simSpec) (*delta.Simulator, time.Duration, error) {
	t0 := time.Now()
	s, err := delta.New(delta.WithConfig(sp.config()))
	if err != nil {
		return nil, 0, err
	}
	if err := s.LoadMixE(sp.Mix); err != nil {
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// setupSims times constructing every simulator of a unit of work.
func setupSims(specs []simSpec) (time.Duration, error) {
	var total time.Duration
	for _, sp := range specs {
		_, d, err := newSim(sp)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// simOutcome is one finished simulation.
type simOutcome struct {
	Fingerprint string
	IPC         float64
	Done        time.Duration // since the op started
	Restore     restoreStatus
	RestoreErr  error
}

type restoreStatus int

const (
	restoreNone    restoreStatus = iota // no checkpoint was taken
	restoreChecked                      // restored and resumed; RestoreErr holds the verdict
	restoreXFail                        // Restore hit knownRestoreDefect; RestoreErr holds it
)

// String is the status as folded into a unit's digest.
func (s restoreStatus) String() string {
	return [...]string{"none", "checked", "xfail"}[s]
}

// knownRestoreDefect is the error cbt.FromSnapshot returns for the fragmented
// tables cbt.BuildIncremental legitimately produces. Until that is fixed, a
// restore failing with it is an expected failure, not a failed op, but only
// for the policies that build such tables under churn16-ckpt's fast-forward
// plus scenario: carma, delta and ideal. Whether one of them hits it depends
// on the seed; the digest records which did, so golden.json pins the set.
const knownRestoreDefect = "appears in more than one range"

var restoreDefectPolicies = map[string]bool{"carma": true, "delta": true, "ideal": true}

// runSim runs one simulation through the facade, then (for churn specs)
// encodes, decodes and restores its last checkpoint and resumes it to the end.
func runSim(ctx context.Context, sp simSpec, start time.Time) (simOutcome, error) {
	s, _, err := newSim(sp)
	if err != nil {
		return simOutcome{}, err
	}
	res, err := s.RunCtx(ctx)
	if err != nil {
		return simOutcome{}, err
	}
	out := simOutcome{Fingerprint: s.Fingerprint(), IPC: res.GeoMeanIPC()}
	// A run shorter than snapshotEvery quanta has no checkpoint to resume.
	if snap := s.LastSnapshot(); sp.Churn && snap != nil {
		out.Restore, out.RestoreErr = resumeCheckpoint(ctx, nil, 0, 0, snap.Encode, out.Fingerprint)
	}
	out.Done = time.Since(start)
	return out, nil
}

// resumeCheckpoint encodes a checkpoint, round-trips it through
// DecodeSnapshot and Restore, resumes it, and checks the resumed run ends in
// the uninterrupted run's state. Spans go to tr when it is non-nil.
func resumeCheckpoint(ctx context.Context, tr *tracer, sim, parent int,
	encode func() ([]byte, error), want string) (restoreStatus, error) {
	_, end := tr.begin(sim, parent, "snapshot.encode")
	data, err := encode()
	end()
	if err != nil {
		return restoreChecked, fmt.Errorf("encode checkpoint: %w", err)
	}
	tr.count("snapshot.bytes", float64(len(data)))
	tr.count("snapshot.encodes", 1)
	_, end = tr.begin(sim, parent, "snapshot.decode")
	dec, err := delta.DecodeSnapshot(data)
	end()
	if err != nil {
		return restoreChecked, fmt.Errorf("decode checkpoint: %w", err)
	}
	_, end = tr.begin(sim, parent, "snapshot.restore")
	r, err := delta.Restore(dec)
	end()
	if err != nil {
		err = fmt.Errorf("restore checkpoint: %w", err)
		if strings.Contains(err.Error(), knownRestoreDefect) {
			return restoreXFail, err
		}
		return restoreChecked, err
	}
	_, end = tr.begin(sim, parent, "snapshot.resume")
	_, err = r.RunCtx(ctx)
	end()
	if err != nil {
		return restoreChecked, fmt.Errorf("resume checkpoint: %w", err)
	}
	if r.Fingerprint() != want {
		return restoreChecked, errors.New("resumed run's fingerprint differs from the uninterrupted run's")
	}
	return restoreChecked, nil
}

// simOp runs specs on a pool of workers, each simulation one job, and
// digests their fingerprints in spec order.
func simOp(ctx context.Context, specs []simSpec, workers int, tr *tracer) opResult {
	start := time.Now()
	outs := make([]simOutcome, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				if tr != nil {
					outs[i], errs[i] = runTraced(ctx, tr, i, specs[i], start)
				} else {
					outs[i], errs[i] = runSim(ctx, specs[i], start)
				}
			}
		}()
	}
	wg.Wait()
	res := opResult{Wall: time.Since(start)}
	h := sha256.New()
	for i, o := range outs {
		sp := specs[i]
		res.Attempted++
		if errs[i] != nil {
			res.fail(fmt.Errorf("%s: %w", sp.Policy, errs[i]))
			continue
		}
		res.Jobs = append(res.Jobs, o.Done)
		res.Instr += sp.instructions()
		res.IPCs = append(res.IPCs, o.IPC)
		fmt.Fprintf(h, "%s\n%s\nrestore %s\n", sp.Policy, o.Fingerprint, o.Restore)
		switch {
		case o.Restore == restoreXFail && restoreDefectPolicies[sp.Policy]:
			res.XFail++
		case o.Restore != restoreNone:
			res.Attempted++
			if o.RestoreErr != nil {
				res.fail(fmt.Errorf("%s: %w", sp.Policy, o.RestoreErr))
			}
		}
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))[:16]
	if tr != nil {
		res.Layer = tr.layerTotals()
	}
	return res
}

// --- campaign batch workload ---------------------------------------------------

// batchSlots is the worker's simulation slots: one per CPU of the two the
// benchmark uses.
const batchSlots = 2

// batchJobs is the Fig. 5 grid submitted as one campaign batch, the way
// EXPERIMENTS.md ("Fleet campaigns") runs a figure through delta-coord: every
// paper policy on every mix at 16 cores, one seed, in the order Fig5 visits
// them. The grid has no duplicate points, so nothing is deduplicated. Windows
// are QuickScale divided by ten (10k / 8k), the benchmark's own choice so
// that a run holds several batches.
func batchJobs(rc runCfg) []api.SubmitRequest {
	w, b, mixes := uint64(10_000), uint64(8_000), delta.MixNames()
	if rc.Quick {
		w, b, mixes = quickWindow, quickWindow, mixes[:4]
	}
	var jobs []api.SubmitRequest
	for _, m := range mixes {
		for _, p := range experiments.PaperPolicies {
			jobs = append(jobs, api.SubmitRequest{
				Policy: p, Cores: 16, Mix: m,
				WarmupInstructions: w, BudgetInstructions: b, Seed: rc.Seed,
			})
		}
	}
	return jobs
}

// fleet is an in-process campaign fabric, each server behind a loopback
// listener: one delta-served worker with a checkpoint directory, and a
// delta-coord coordinator with a result store in front of it, as in the
// fabric lane of scripts/service_smoke.sh but with one worker for the two
// CPUs. Every setting other than the directories is the binaries' default.
type fleet struct {
	srv      *server.Server
	coord    *fabric.Coordinator
	wts, cts *httptest.Server
	cl       *client.Client
	dir      string
}

// startFleet starts a worker and a coordinator over fresh directories and
// waits until the coordinator's /healthz reads ok.
func startFleet(ctx context.Context, rc runCfg) (*fleet, error) {
	dir, err := os.MkdirTemp(rc.TmpDir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	f.srv = server.New(server.Config{Workers: batchSlots, CheckpointDir: filepath.Join(dir, "checkpoints")})
	f.wts = httptest.NewServer(f.srv.Handler())
	f.coord, err = fabric.New(fabric.Config{Workers: []string{f.wts.URL}, ResultDir: filepath.Join(dir, "results")})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.cts = httptest.NewServer(f.coord.Handler())
	f.cl = client.New(f.cts.URL)
	for {
		h, err := f.cl.Health(ctx)
		if err == nil && h.Status == "ok" {
			return f, nil
		}
		if ctx.Err() != nil {
			f.stop()
			return nil, ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the coordinator and then the worker down, closes both
// listeners and removes the directories.
func (f *fleet) stop() error {
	var errs []error
	if f.coord != nil {
		errs = append(errs, f.coord.Shutdown(context.Background()))
		f.cts.Close()
	}
	errs = append(errs, f.srv.Shutdown(context.Background()))
	f.wts.Close()
	errs = append(errs, os.RemoveAll(f.dir))
	return errors.Join(errs...)
}

func setupFleet(ctx context.Context, rc runCfg) (time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(ctx, rc)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, f.stop()
}

// stageSample is one batch job's timing as the client sees it.
type stageSample struct {
	Arrived time.Duration // batch POST → the job's result line
	RunMS   int64         // the worker's Result.ElapsedMS
}

// batchOp posts the grid to a fresh fleet from one client that waits for
// the whole stream (a closed loop with one batch outstanding) and checks
// that every job ends done with a complete result.
func batchOp(ctx context.Context, rc runCfg, _ *tracer) opResult {
	jobs := batchJobs(rc)
	var res opResult
	f, err := startFleet(ctx, rc)
	if err != nil {
		res.Attempted++
		res.fail(err)
		return res
	}
	items := make([]*api.BatchItem, len(jobs))
	arrived := make([]time.Duration, len(jobs))
	lines := 0
	start := time.Now()
	berr := f.cl.Batch(ctx, jobs, func(it api.BatchItem) bool {
		lines++
		if it.Index >= 0 && it.Index < len(items) && items[it.Index] == nil {
			items[it.Index], arrived[it.Index] = &it, time.Since(start)
		}
		return true
	})
	res.Wall = time.Since(start)
	if err := f.stop(); err != nil {
		res.Attempted++
		res.fail(fmt.Errorf("stop fleet: %w", err))
	}
	if berr != nil || lines != len(jobs) {
		res.Attempted++
		res.fail(fmt.Errorf("batch: %d result lines for %d jobs (%v)", lines, len(jobs), berr))
	}

	h := sha256.New()
	for i, it := range items {
		res.Attempted++
		switch {
		case it == nil:
			res.fail(fmt.Errorf("job %d: no result line", i))
			continue
		case it.Status != api.StateDone:
			res.fail(fmt.Errorf("job %d settled %s: %s", i, it.Status, it.Error))
			continue
		case it.Result == nil || it.Result.Partial:
			res.fail(fmt.Errorf("job %d: missing or partial result", i))
			continue
		}
		r := *it.Result
		r.ElapsedMS = 0 // wall-clock, not simulation output
		body, err := json.Marshal(r)
		if err != nil {
			res.fail(err)
			continue
		}
		fmt.Fprintf(h, "%x\n", sha256.Sum256(body))
		res.IPCs = append(res.IPCs, r.GeomeanIPC)
		res.Jobs = append(res.Jobs, arrived[i])
		res.Instr += float64(jobs[i].Cores) * float64(jobs[i].WarmupInstructions+jobs[i].BudgetInstructions)
		res.Stages = append(res.Stages, stageSample{Arrived: arrived[i], RunMS: it.Result.ElapsedMS})
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))[:16]
	return res
}
