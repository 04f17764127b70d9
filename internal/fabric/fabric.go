// Package fabric is the sharded campaign fabric: a coordinator that spreads
// content-addressed simulation jobs across a fleet of delta-served workers.
//
// Routing is consistent hashing over the job's content address, so an
// identical request always lands on the same worker and the per-worker
// single-flight cache deduplicates fleet-wide — N clients submitting one
// campaign cost one simulation per distinct job, no matter which coordinator
// or worker they hit. Completed results persist in a disk-backed
// content-addressed store that survives coordinator restarts.
//
// Jobs are migratable because checkpoint/restore made them so: when a worker
// is removed gracefully, the coordinator suspends its in-flight jobs,
// fetches their portable checkpoints, uploads them to the new ring owners
// and resubmits — each job resumes at the exact quantum boundary it left.
// When a worker fails health checks, its jobs are resubmitted by content
// address to the survivors; simulations are deterministic, so a from-scratch
// rerun is byte-identical to the run it replaces either way.
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	neturl "net/url"
	"sync"
	"time"

	"delta/internal/server"
	"delta/internal/server/api"
	"delta/internal/server/client"
	"delta/internal/server/store"
	"delta/internal/telemetry"
)

// Config tunes the coordinator.
type Config struct {
	// Workers are the initial fleet members' base URLs; more can join at
	// runtime via POST /v1/fleet/workers.
	Workers []string
	// ResultDir, when set, persists every completed result to a
	// content-addressed store that survives coordinator restarts; duplicate
	// submissions dedupe against it without touching a worker. Empty
	// disables the store.
	ResultDir string
	// HealthEvery is the worker health-probe interval; <= 0 uses 2s.
	HealthEvery time.Duration
	// FailAfter is how many consecutive probe failures mark a worker down
	// and trigger rebalancing; <= 0 uses 3.
	FailAfter int
	// PollEvery is the minimum interval between two status requests for one
	// job; <= 0 uses 50ms. Each request is a long-poll that the worker holds
	// until the job settles or HealthEvery passes, so PollEvery only sets
	// the rate for a worker that answers at once (one that ignores ?wait=,
	// or a job that stays suspended while it is handed off).
	PollEvery time.Duration
	// SuspendTimeout bounds how long a graceful removal waits for a job to
	// reach "suspended" before falling back to a from-scratch resubmission;
	// <= 0 uses 30s.
	SuspendTimeout time.Duration
	// MaxBatch caps POST /v1/batch job counts; <= 0 uses 1024.
	MaxBatch int
	// Version is reported by /healthz.
	Version string
	// Logf receives one line per fleet event; nil silences.
	Logf func(format string, args ...any)
}

// healthTimeout bounds one worker health probe.
const healthTimeout = time.Second

// worker is one fleet member as the coordinator sees it.
type worker struct {
	url   string
	c     *client.Client
	state api.WorkerState
	fails int
}

// fleetJob is one tracked job: its content address, the normalized request
// (re-submittable to any worker), and the worker currently owning it.
type fleetJob struct {
	id  string
	req api.SubmitRequest

	mu      sync.Mutex
	owner   string
	doc     api.Job
	settled bool
	done    chan struct{}
	// stopWait cancels the watcher's status long-poll in flight, if any:
	// a new owner or a settlement makes its answer moot.
	stopWait context.CancelFunc
}

func (f *fleetJob) snapshot() api.Job {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.doc
}

func (f *fleetJob) currentOwner() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.owner
}

// setOwner moves the job and cancels the watcher's long-poll on the old
// owner, so the watcher follows the job at once.
func (f *fleetJob) setOwner(url string) {
	f.mu.Lock()
	f.owner = url
	if f.stopWait != nil {
		f.stopWait()
	}
	f.mu.Unlock()
}

// beginWait registers the cancel of a status long-poll about to be sent and
// returns the owner to send it to; endWait unregisters it.
func (f *fleetJob) beginWait(cancel context.CancelFunc) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stopWait = cancel
	return f.owner
}

func (f *fleetJob) endWait() {
	f.mu.Lock()
	f.stopWait = nil
	f.mu.Unlock()
}

func (f *fleetJob) update(doc api.Job) {
	f.mu.Lock()
	if !f.settled {
		f.doc = doc
	}
	f.mu.Unlock()
}

// settle marks the job final and wakes waiters; idempotent.
func (f *fleetJob) settle(doc api.Job) {
	f.mu.Lock()
	if !f.settled {
		f.settled = true
		f.doc = doc
		close(f.done)
		if f.stopWait != nil {
			f.stopWait()
		}
	}
	f.mu.Unlock()
}

func (f *fleetJob) isSettled() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.settled
}

// coordError is a routing failure that maps onto the structured wire error.
type coordError struct {
	status int
	code   string
	msg    string
}

func (e *coordError) Error() string { return e.msg }

// Coordinator routes jobs across the fleet and serves the fabric API.
type Coordinator struct {
	cfg     Config
	shared  *telemetry.Shared
	results *store.Store // nil without a ResultDir
	mux     *http.ServeMux
	start   time.Time

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// transport carries every request to every worker. One job watcher per
	// tracked job long-polls its worker concurrently, so each worker may
	// hold up to MaxBatch idle connections; the default transport keeps
	// two, and almost every request would dial a fresh connection.
	transport *http.Transport

	mu       sync.Mutex
	workers  map[string]*worker
	ring     *ring
	jobs     map[string]*fleetJob
	draining bool
}

// New builds a coordinator over the configured workers and starts its
// health-check loop.
func New(cfg Config) (*Coordinator, error) {
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = 2 * time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 50 * time.Millisecond
	}
	if cfg.SuspendTimeout <= 0 {
		cfg.SuspendTimeout = 30 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no fleet-wide cap; the per-worker one bounds it
	tr.MaxIdleConnsPerHost = cfg.MaxBatch
	c := &Coordinator{
		cfg:     cfg,
		shared:  telemetry.NewShared(),
		start:   time.Now(),
		baseCtx: ctx,
		cancel:  cancel,
		workers: make(map[string]*worker),
		jobs:    make(map[string]*fleetJob),

		transport: tr,
	}
	if cfg.ResultDir != "" {
		st, err := store.Open(cfg.ResultDir)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("fabric: result store: %w", err)
		}
		c.results = st
	}
	for _, url := range cfg.Workers {
		c.addWorkerLocked(url)
	}
	c.rebuildRingLocked()

	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/simulations", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/simulations/{id}", c.handleGet)
	c.mux.HandleFunc("POST /v1/batch", c.handleBatch)
	c.mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	c.mux.HandleFunc("POST /v1/fleet/workers", c.handleAddWorker)
	c.mux.HandleFunc("DELETE /v1/fleet/workers", c.handleRemoveWorker)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)

	c.wg.Add(1)
	go c.healthLoop()
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Telemetry exposes the coordinator's aggregate recorder.
func (c *Coordinator) Telemetry() *telemetry.Shared { return c.shared }

// Owner reports which worker URL a tracked job currently routes to (empty
// for unknown jobs) — the coordinator's placement is observable for tests
// and operators.
func (c *Coordinator) Owner(id string) string {
	c.mu.Lock()
	fj := c.jobs[id]
	c.mu.Unlock()
	if fj == nil {
		return ""
	}
	return fj.currentOwner()
}

// Shutdown stops the health loop and job watchers. Jobs already running on
// workers keep running there; a restarted coordinator re-attaches to them by
// content address on resubmission.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.cancel()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		c.transport.CloseIdleConnections()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// newWorkerClient builds the per-worker client on the shared transport: a
// short retry policy rides out momentary queue-full and restart windows
// without masking real loss.
func (c *Coordinator) newWorkerClient(url string) *client.Client {
	cl := client.New(url)
	cl.HTTPClient = &http.Client{Transport: c.transport}
	cl.Retry = &client.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	return cl
}

func (c *Coordinator) addWorkerLocked(url string) {
	if w := c.workers[url]; w != nil {
		w.state = api.WorkerUp
		w.fails = 0
		return
	}
	c.workers[url] = &worker{url: url, c: c.newWorkerClient(url), state: api.WorkerUp}
}

// rebuildRingLocked recomputes the hash ring from the up workers.
func (c *Coordinator) rebuildRingLocked() {
	var up []string
	for _, w := range c.workers {
		if w.state == api.WorkerUp {
			up = append(up, w.url)
		}
	}
	c.ring = newRing(up, ringReplicas)
}

func (c *Coordinator) workerByURL(url string) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[url]
}

// --- routing -----------------------------------------------------------------

// routeJob admits one request into the fabric: content-address it, serve it
// from the result store or the tracked-job map when possible, otherwise
// submit it to its ring owner and start a watcher. A nil fleetJob with a nil
// error means the response was served from the store.
func (c *Coordinator) routeJob(ctx context.Context, req api.SubmitRequest) (api.SubmitResponse, *fleetJob, error) {
	norm, id, err := server.ContentAddress(req)
	if err != nil {
		return api.SubmitResponse{}, nil, &coordError{http.StatusBadRequest, "invalid_config", err.Error()}
	}
	// The lane survives normalization stripping it from the identity: a
	// rebalanced resubmission should keep the submitter's priority.
	if req.Priority == api.PriorityHigh {
		norm.Priority = api.PriorityHigh
	}
	if c.results != nil {
		if doc, ok, serr := c.results.Get(id); serr == nil && ok && store.Storable(doc) {
			c.shared.Count("coord.store.hits", 1)
			return api.SubmitResponse{SchemaVersion: api.SchemaVersion, ID: id, Status: doc.Status, Deduped: true}, nil, nil
		}
	}

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return api.SubmitResponse{}, nil, &coordError{http.StatusServiceUnavailable, "draining", "coordinator is draining"}
	}
	if fj := c.jobs[id]; fj != nil && !fj.isSettled() {
		c.mu.Unlock()
		c.shared.Count("coord.singleflight.deduped", 1)
		return api.SubmitResponse{SchemaVersion: api.SchemaVersion, ID: id, Status: fj.snapshot().Status, Deduped: true}, fj, nil
	} else if fj != nil {
		// Settled in memory (e.g. store disabled): serve the cached document.
		c.mu.Unlock()
		c.shared.Count("coord.singleflight.deduped", 1)
		return api.SubmitResponse{SchemaVersion: api.SchemaVersion, ID: id, Status: fj.snapshot().Status, Deduped: true}, fj, nil
	}
	owner := c.ring.owner(id)
	if owner == "" {
		c.mu.Unlock()
		return api.SubmitResponse{}, nil, &coordError{http.StatusServiceUnavailable, "no_workers", "no healthy workers in the fleet"}
	}
	w := c.workers[owner]
	fj := &fleetJob{
		id: id, req: norm, owner: owner, done: make(chan struct{}),
		doc: api.Job{SchemaVersion: api.SchemaVersion, ID: id, Status: api.StateQueued, Request: norm},
	}
	c.jobs[id] = fj
	c.mu.Unlock()

	sub, err := w.c.Submit(ctx, fj.req)
	if err != nil {
		c.mu.Lock()
		delete(c.jobs, id)
		c.mu.Unlock()
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			return api.SubmitResponse{}, nil, &coordError{apiErr.StatusCode, apiErr.Code, apiErr.Message}
		}
		return api.SubmitResponse{}, nil, &coordError{http.StatusBadGateway, "internal",
			fmt.Sprintf("worker %s unreachable: %v", owner, err)}
	}
	c.shared.Count("coord.jobs.routed", 1)
	c.cfg.Logf("delta-coord: job %s -> %s (%s)", id, owner, sub.Status)
	c.wg.Add(1)
	go c.watch(fj)
	sub.SchemaVersion = api.SchemaVersion
	sub.ID = id
	return sub, fj, nil
}

// watch follows a job on its current owner until the job settles. Each
// status request is a long-poll bounded by HealthEvery, so a job costs about
// one request per HealthEvery of its life instead of one per PollEvery;
// PollEvery stays the floor between two requests. Ownership may change under
// it (rebalancing): setOwner cancels the request in flight and every request
// goes to the owner of the moment. A suspension observed on a worker that
// still owns the job and is still up (a client suspended it there) resumes
// in place — once per observed suspension, mirroring the client's Wait
// semantics. A suspension on a draining worker is reassign's checkpoint
// handoff, which resuming on the donor would defeat.
func (c *Coordinator) watch(fj *fleetJob) {
	defer c.wg.Done()
	var last time.Time
	resubmitted := false
	for c.pace(c.baseCtx, &last) {
		if fj.isSettled() {
			return
		}
		w, doc, err := c.pollOwner(fj)
		if w == nil {
			continue // owner mid-rebalance
		}
		if err != nil {
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
				// The worker restarted and lost its in-memory state: resubmit
				// by content address; a checkpoint on its disk resumes it.
				if !resubmitted && c.ownsUp(fj, w) {
					if _, serr := w.c.Submit(c.baseCtx, fj.req); serr == nil {
						c.shared.Count("coord.jobs.reattached", 1)
						resubmitted = true
					}
				}
			}
			continue // transport errors are the health loop's to judge
		}
		fj.update(doc)
		switch {
		case doc.Status.Terminal():
			c.settleJob(fj, doc)
			return
		case doc.Status == api.StateSuspended:
			if !resubmitted && c.ownsUp(fj, w) {
				if _, serr := w.c.Submit(c.baseCtx, fj.req); serr == nil {
					c.shared.Count("coord.jobs.resumed_in_place", 1)
					resubmitted = true
				}
			}
		default:
			resubmitted = false
		}
	}
}

// pace waits until PollEvery has passed since *last, then stamps *last with
// the time of the request about to be sent. It returns false when ctx ends
// first. The zero *last sends the first request at once.
func (c *Coordinator) pace(ctx context.Context, last *time.Time) bool {
	t := time.NewTimer(time.Until(last.Add(c.cfg.PollEvery)))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
	}
	*last = time.Now()
	return true
}

// pollOwner sends one status long-poll for a job to its current owner,
// cancelable by setOwner and settle. A nil worker means the owner is not a
// fleet member at the moment.
func (c *Coordinator) pollOwner(fj *fleetJob) (*worker, api.Job, error) {
	ctx, cancel := context.WithCancel(c.baseCtx)
	defer cancel()
	w := c.workerByURL(fj.beginWait(cancel))
	defer fj.endWait()
	if w == nil {
		return nil, api.Job{}, nil
	}
	doc, err := c.jobStatus(ctx, w, fj.id)
	return w, doc, err
}

// jobStatus sends one status request to a worker, a long-poll the worker
// holds for up to HealthEvery, and counts it as coord.status.requests.
func (c *Coordinator) jobStatus(ctx context.Context, w *worker, id string) (api.Job, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.HealthEvery+healthTimeout)
	defer cancel()
	c.shared.Count("coord.status.requests", 1)
	return w.c.JobWait(ctx, id, c.cfg.HealthEvery)
}

// ownsUp reports whether w still owns the job and is still up: only then may
// a watcher resubmit the job to w in place.
func (c *Coordinator) ownsUp(fj *fleetJob, w *worker) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return w.state == api.WorkerUp && fj.currentOwner() == w.url
}

// settleJob records a terminal document and persists sound results.
func (c *Coordinator) settleJob(fj *fleetJob, doc api.Job) {
	if c.results != nil && store.Storable(doc) {
		if err := c.results.Put(doc); err != nil {
			c.cfg.Logf("delta-coord: job %s: result store: %v", fj.id, err)
			c.shared.Count("coord.store.errors", 1)
		} else {
			c.shared.Count("coord.store.writes", 1)
		}
	}
	c.shared.Count("coord.jobs.settled", 1)
	fj.settle(doc)
}

// --- health & rebalancing ----------------------------------------------------

func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
		}
		c.mu.Lock()
		probe := make([]*worker, 0, len(c.workers))
		for _, w := range c.workers {
			if w.state != api.WorkerDraining {
				probe = append(probe, w)
			}
		}
		c.mu.Unlock()
		for _, w := range probe {
			ctx, cancel := context.WithTimeout(c.baseCtx, healthTimeout)
			_, err := w.c.Health(ctx)
			cancel()
			c.noteProbe(w, err)
		}
	}
}

// noteProbe folds one health-probe outcome into the worker's state and
// triggers rebalancing on an up → down transition (or ring re-entry on
// recovery).
func (c *Coordinator) noteProbe(w *worker, err error) {
	c.mu.Lock()
	if err == nil {
		w.fails = 0
		if w.state == api.WorkerDown {
			w.state = api.WorkerUp
			c.rebuildRingLocked()
			c.mu.Unlock()
			c.cfg.Logf("delta-coord: worker %s recovered, rejoining ring", w.url)
			c.shared.Count("coord.workers.recovered", 1)
			return
		}
		c.mu.Unlock()
		return
	}
	w.fails++
	c.shared.Count("coord.health.fails", 1)
	if w.state != api.WorkerUp || w.fails < c.cfg.FailAfter {
		c.mu.Unlock()
		return
	}
	w.state = api.WorkerDown
	c.rebuildRingLocked()
	orphans := c.jobsOwnedLocked(w.url)
	c.mu.Unlock()
	c.cfg.Logf("delta-coord: worker %s down after %d failed probes (%v); rebalancing %d jobs",
		w.url, w.fails, err, len(orphans))
	c.shared.Count("coord.workers.down", 1)
	for _, fj := range orphans {
		c.reassign(fj, nil)
	}
}

// jobsOwnedLocked lists unsettled jobs currently owned by a worker.
func (c *Coordinator) jobsOwnedLocked(url string) []*fleetJob {
	var out []*fleetJob
	for _, fj := range c.jobs {
		if !fj.isSettled() && fj.currentOwner() == url {
			out = append(out, fj)
		}
	}
	return out
}

// reassign moves one job to its new ring owner. With a donor (graceful
// removal), the job is suspended on the donor, its checkpoint fetched and
// uploaded to the new owner, and the resubmission resumes it at the exact
// quantum boundary it left. Without a donor (worker loss), the resubmission
// restarts from scratch — or from a checkpoint the new owner already holds —
// and determinism makes the result byte-identical either way.
func (c *Coordinator) reassign(fj *fleetJob, donor *worker) {
	c.mu.Lock()
	newOwner := c.ring.owner(fj.id)
	w := c.workers[newOwner]
	c.mu.Unlock()
	if newOwner == "" || w == nil {
		c.cfg.Logf("delta-coord: job %s stranded: no surviving workers", fj.id)
		fj.update(api.Job{SchemaVersion: api.SchemaVersion, ID: fj.id, Status: api.StateFailed,
			Request: fj.req, Error: "no surviving workers to rebalance onto"})
		c.settleJob(fj, fj.snapshot())
		return
	}

	if donor != nil {
		if ct, ok := c.extractCheckpoint(fj, donor); ok {
			if err := w.c.PutCheckpoint(c.baseCtx, ct); err != nil {
				c.cfg.Logf("delta-coord: job %s: checkpoint handoff to %s failed: %v (restarting fresh)",
					fj.id, newOwner, err)
			} else {
				c.shared.Count("coord.handoff.checkpoints", 1)
			}
		}
	}

	sub, err := w.c.Submit(c.baseCtx, fj.req)
	if err != nil {
		// The new owner is unreachable too; leave the job tracked — the next
		// down-transition or recovery will reassign it again.
		c.cfg.Logf("delta-coord: job %s: resubmit to %s failed: %v", fj.id, newOwner, err)
		c.shared.Count("coord.rebalance.errors", 1)
		return
	}
	fj.setOwner(newOwner)
	c.shared.Count("coord.jobs.rebalanced", 1)
	if sub.Resumed {
		c.shared.Count("coord.handoff.resumed", 1)
	}
	c.cfg.Logf("delta-coord: job %s rebalanced -> %s (resumed=%v)", fj.id, newOwner, sub.Resumed)
}

// extractCheckpoint suspends a job on its donor and fetches the portable
// checkpoint, bounded by SuspendTimeout. ok is false when the job finished
// first, the donor cannot checkpoint, or the donor died mid-drain.
func (c *Coordinator) extractCheckpoint(fj *fleetJob, donor *worker) (api.CheckpointTransfer, bool) {
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.SuspendTimeout)
	defer cancel()
	if _, err := donor.c.Suspend(ctx, fj.id); err != nil {
		c.cfg.Logf("delta-coord: job %s: suspend on %s: %v", fj.id, donor.url, err)
		return api.CheckpointTransfer{}, false
	}
	var last time.Time
	for {
		if !c.pace(ctx, &last) {
			c.cfg.Logf("delta-coord: job %s never suspended on %s", fj.id, donor.url)
			return api.CheckpointTransfer{}, false
		}
		doc, err := c.jobStatus(ctx, donor, fj.id)
		if err == nil {
			if doc.Status.Terminal() {
				// Finished while draining: nothing to hand off.
				c.settleJob(fj, doc)
				return api.CheckpointTransfer{}, false
			}
			if doc.Status == api.StateSuspended {
				break
			}
		}
	}
	ct, err := donor.c.Checkpoint(ctx, fj.id)
	if err != nil {
		c.cfg.Logf("delta-coord: job %s: fetch checkpoint from %s: %v", fj.id, donor.url, err)
		return api.CheckpointTransfer{}, false
	}
	return ct, true
}

// RemoveWorker gracefully drains a worker out of the fleet: no new jobs
// route to it, its in-flight jobs migrate to peers via checkpoint handoff,
// and it is forgotten. Unknown URLs error.
func (c *Coordinator) RemoveWorker(url string) error {
	c.mu.Lock()
	w := c.workers[url]
	if w == nil {
		c.mu.Unlock()
		return fmt.Errorf("unknown worker %q", url)
	}
	wasUp := w.state == api.WorkerUp
	w.state = api.WorkerDraining
	c.rebuildRingLocked()
	orphans := c.jobsOwnedLocked(url)
	c.mu.Unlock()
	c.cfg.Logf("delta-coord: removing worker %s (%d jobs to migrate)", url, len(orphans))
	for _, fj := range orphans {
		if wasUp {
			c.reassign(fj, w)
		} else {
			c.reassign(fj, nil)
		}
	}
	c.mu.Lock()
	delete(c.workers, url)
	c.mu.Unlock()
	c.shared.Count("coord.workers.removed", 1)
	return nil
}

// AddWorker registers (or revives) a fleet member and rebuilds the ring.
func (c *Coordinator) AddWorker(url string) {
	c.mu.Lock()
	c.addWorkerLocked(url)
	c.rebuildRingLocked()
	c.mu.Unlock()
	c.cfg.Logf("delta-coord: worker %s joined", url)
	c.shared.Count("coord.workers.added", 1)
}

// fleetStatus renders the fleet document.
func (c *Coordinator) fleetStatus() api.FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := api.FleetStatus{SchemaVersion: api.SchemaVersion, Status: "ok", StoredResults: -1}
	if c.draining {
		st.Status = "draining"
	}
	owned := make(map[string]int)
	for _, fj := range c.jobs {
		if !fj.isSettled() {
			st.Jobs++
			owned[fj.currentOwner()]++
		}
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, api.WorkerInfo{
			URL: w.url, State: w.state, Jobs: owned[w.url], ConsecutiveFails: w.fails,
		})
	}
	sortWorkers(st.Workers)
	if c.results != nil {
		st.StoredResults = c.results.Len()
	}
	return st
}

// --- HTTP handlers -----------------------------------------------------------

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid_config", "malformed request body: "+err.Error())
		return
	}
	if req.SchemaVersion != 0 && req.SchemaVersion != api.SchemaVersion {
		api.WriteError(w, http.StatusBadRequest, "schema_version",
			fmt.Sprintf("request pins schema version %d; this coordinator speaks %d", req.SchemaVersion, api.SchemaVersion))
		return
	}
	sub, fj, err := c.routeJob(r.Context(), req)
	if err != nil {
		writeCoordError(w, err)
		return
	}
	if sub.Deduped {
		api.WriteJSON(w, http.StatusOK, sub)
		return
	}
	w.Header().Set("Location", "/v1/simulations/"+fj.id)
	api.WriteJSON(w, http.StatusAccepted, sub)
}

// handleGet serves a job's document; ?wait=<duration> long-polls until the
// job settles, as on delta-served.
func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	wait, err := api.ParseWait(r.URL.Query().Get("wait"))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid_wait", err.Error())
		return
	}
	id := r.PathValue("id")
	c.mu.Lock()
	fj := c.jobs[id]
	c.mu.Unlock()
	if fj != nil {
		api.AwaitSettled(r.Context(), wait, fj.done, c.baseCtx.Done())
		api.WriteJSON(w, http.StatusOK, fj.snapshot())
		return
	}
	if c.results != nil {
		if doc, ok, err := c.results.Get(id); err == nil && ok {
			api.WriteJSON(w, http.StatusOK, doc)
			return
		}
	}
	api.WriteError(w, http.StatusNotFound, "unknown_job", "no simulation with this id")
}

// handleBatch admits every job of the batch (deduplicating inside the batch
// via the shared tracked-job map), then streams one NDJSON BatchItem per job
// in completion order.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq api.BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid_config", "malformed batch body: "+err.Error())
		return
	}
	if breq.SchemaVersion != 0 && breq.SchemaVersion != api.SchemaVersion {
		api.WriteError(w, http.StatusBadRequest, "schema_version",
			fmt.Sprintf("batch pins schema version %d; this coordinator speaks %d", breq.SchemaVersion, api.SchemaVersion))
		return
	}
	if len(breq.Jobs) == 0 {
		api.WriteError(w, http.StatusBadRequest, "invalid_config", "batch has no jobs")
		return
	}
	if len(breq.Jobs) > c.cfg.MaxBatch {
		api.WriteError(w, http.StatusBadRequest, "batch_too_large",
			fmt.Sprintf("batch has %d jobs; this coordinator accepts at most %d", len(breq.Jobs), c.cfg.MaxBatch))
		return
	}
	c.shared.Count("coord.batch.requests", 1)
	c.shared.Count("coord.batch.jobs", uint64(len(breq.Jobs)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	writeItem := func(item api.BatchItem) {
		wmu.Lock()
		defer wmu.Unlock()
		if enc.Encode(item) == nil && flusher != nil {
			flusher.Flush()
		}
	}

	var wg sync.WaitGroup
	for i, req := range breq.Jobs {
		sub, fj, err := c.routeJob(r.Context(), req)
		if err != nil {
			writeItem(api.BatchItem{Index: i, Status: api.StateFailed, Error: err.Error()})
			continue
		}
		wg.Add(1)
		go func(i int, id string, fj *fleetJob) {
			defer wg.Done()
			writeItem(c.awaitItem(r.Context(), i, id, fj))
		}(i, sub.ID, fj)
	}
	wg.Wait()
}

// awaitItem blocks until a routed job settles (or the request context ends)
// and renders its batch line.
func (c *Coordinator) awaitItem(ctx context.Context, index int, id string, fj *fleetJob) api.BatchItem {
	var doc api.Job
	if fj == nil {
		// Served from the result store at admission time.
		if c.results != nil {
			if d, ok, err := c.results.Get(id); err == nil && ok {
				doc = d
			}
		}
		if doc.ID == "" {
			return api.BatchItem{Index: index, ID: id, Status: api.StateFailed, Error: "stored result vanished"}
		}
	} else {
		select {
		case <-fj.done:
			doc = fj.snapshot()
		case <-ctx.Done():
			doc = fj.snapshot()
			return api.BatchItem{Index: index, ID: id, Status: doc.Status, Error: "batch canceled before completion"}
		}
	}
	return api.BatchItem{Index: index, ID: id, Status: doc.Status, Error: doc.Error, Result: doc.Result}
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, c.fleetStatus())
}

func (c *Coordinator) handleAddWorker(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterWorkerRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid_config", "malformed body: "+err.Error())
		return
	}
	u, err := neturl.Parse(req.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		api.WriteError(w, http.StatusBadRequest, "invalid_config", fmt.Sprintf("worker url %q is not absolute", req.URL))
		return
	}
	c.AddWorker(req.URL)
	api.WriteJSON(w, http.StatusOK, c.fleetStatus())
}

func (c *Coordinator) handleRemoveWorker(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Query().Get("url")
	if url == "" {
		api.WriteError(w, http.StatusBadRequest, "invalid_config", "missing url query parameter")
		return
	}
	if err := c.RemoveWorker(url); err != nil {
		api.WriteError(w, http.StatusNotFound, "unknown_worker", err.Error())
		return
	}
	api.WriteJSON(w, http.StatusOK, c.fleetStatus())
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := c.fleetStatus()
	api.WriteJSON(w, http.StatusOK, api.Health{
		Status:        st.Status,
		Version:       c.cfg.Version,
		UptimeSeconds: int64(time.Since(c.start).Seconds()),
		Inflight:      int64(st.Jobs),
	})
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	draining := c.draining
	up := 0
	for _, wk := range c.workers {
		if wk.state == api.WorkerUp {
			up++
		}
	}
	c.mu.Unlock()
	if draining {
		api.WriteError(w, http.StatusServiceUnavailable, "draining", "coordinator is draining")
		return
	}
	if up == 0 {
		api.WriteError(w, http.StatusServiceUnavailable, "no_workers", "no healthy workers in the fleet")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := c.fleetStatus()
	snap := c.shared.Snapshot()
	up := 0
	for _, wk := range st.Workers {
		if wk.State == api.WorkerUp {
			up++
		}
	}
	snap.Gauges["coord.workers.up"] = float64(up)
	snap.Gauges["coord.jobs.tracked"] = float64(st.Jobs)
	if st.StoredResults >= 0 {
		snap.Gauges["coord.store.results"] = float64(st.StoredResults)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.WritePrometheus(w, snap)
}

// --- small helpers -----------------------------------------------------------

func sortWorkers(ws []api.WorkerInfo) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].URL < ws[j-1].URL; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

func writeCoordError(w http.ResponseWriter, err error) {
	var ce *coordError
	if errors.As(err, &ce) {
		api.WriteError(w, ce.status, ce.code, ce.msg)
		return
	}
	api.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
}
