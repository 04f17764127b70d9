// Package server is the delta-served simulation service: a long-lived HTTP
// frontend over the simulator facade with admission control. Submissions are
// validated, content-addressed (the job ID is a hash of the canonical
// request), deduplicated single-flight against both in-flight and completed
// jobs, and run through a bounded queue and a fixed worker pool; a full
// queue pushes back with 429 + Retry-After instead of accepting unbounded
// work. Each job runs under a configurable deadline with cooperative
// cancellation threaded into the chip's quantum loop, and Shutdown stops
// admission, drains every accepted job, and flushes telemetry sinks — the
// shape of a production inference frontend, applied to simulations.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"delta"
	"delta/internal/server/api"
	"delta/internal/server/store"
	"delta/internal/telemetry"
	"delta/internal/telemetry/columnar"
)

// Config tunes the service.
type Config struct {
	// Workers is the simulation worker pool size; <= 0 uses
	// runtime.NumCPU().
	Workers int
	// QueueDepth bounds how many accepted jobs may wait for a worker, per
	// priority lane; <= 0 uses 64. A full lane rejects submissions with 429.
	// Workers always dequeue the high lane before the normal one.
	QueueDepth int
	// JobTimeout is the per-job deadline measured from dequeue; 0 disables
	// deadlines. Expired jobs report canceled with partial results.
	JobTimeout time.Duration
	// CheckpointDir, when set, enables suspend/resume: suspended jobs
	// persist their simulation snapshot here (keyed by content address),
	// Shutdown checkpoints in-flight jobs instead of discarding their
	// progress, and resubmitting a suspended request resumes from the
	// checkpoint — across server restarts. Empty disables suspension.
	CheckpointDir string
	// ResultDir, when set, persists every completed (done, non-partial)
	// result to a disk-backed content-addressed store: resubmitting an
	// equivalent request after a restart dedupes against the stored result
	// instead of re-simulating, and startup sweeps checkpoints orphaned by
	// a crash between completion and checkpoint removal. Empty disables
	// the store.
	ResultDir string
	// Version is reported by /healthz.
	Version string
	// Sink, when non-nil, receives every simulation's telemetry in
	// addition to the server's aggregate recorder (e.g. a JSONL stream).
	// It is flushed during Shutdown and may be single-goroutine-only: the
	// server serializes access.
	Sink telemetry.Recorder
	// TelemetryDir, when set, streams each job's per-quantum samples into a
	// columnar segment directory (TelemetryDir/<job-id>) and enables
	// GET /v1/simulations/{id}/telemetry range queries over them — including
	// for suspended and completed jobs, across server restarts. Empty
	// disables the columnar sink and the endpoint answers 409 no_telemetry.
	TelemetryDir string
	// TelemetryRetainBytes caps each job's segment directory; oldest closed
	// segments are deleted first. 0 retains everything.
	TelemetryRetainBytes int64
	// Logf receives one line per lifecycle transition; nil silences.
	Logf func(format string, args ...any)
}

// Server is the service state behind the HTTP handler.
type Server struct {
	cfg     Config
	workers int
	shared  *telemetry.Shared
	sink    *telemetry.FanIn // serialized view of cfg.Sink, nil without one
	mux     *http.ServeMux
	start   time.Time

	baseCtx context.Context
	cancel  context.CancelFunc

	results *store.Store // nil without a ResultDir

	mu   sync.Mutex
	jobs map[string]*job
	// Two admission lanes share the worker pool; dequeue always prefers
	// the high lane (see dequeue).
	queueHigh chan *job
	queueNorm chan *job
	draining  bool

	inflight atomic.Int64
	wg       sync.WaitGroup
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		workers:   cfg.Workers,
		shared:    telemetry.NewShared(),
		sink:      telemetry.NewFanIn(cfg.Sink),
		start:     time.Now(),
		baseCtx:   ctx,
		cancel:    cancel,
		jobs:      make(map[string]*job),
		queueHigh: make(chan *job, cfg.QueueDepth),
		queueNorm: make(chan *job, cfg.QueueDepth),
	}
	if cfg.ResultDir != "" {
		st, err := store.Open(cfg.ResultDir)
		if err != nil {
			// A broken result store degrades to the in-memory cache rather
			// than refusing to serve.
			cfg.Logf("delta-served: result store %s: %v (disabled)", cfg.ResultDir, err)
		} else {
			s.results = st
			s.sweepOrphanedCheckpoints()
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/simulations", s.handleSubmit)
	// Custom-method URLs ("{id}:suspend") arrive as one path segment; the
	// handler splits id from action (Go's ServeMux cannot pattern-match a
	// ":" inside a segment).
	s.mux.HandleFunc("POST /v1/simulations/{idAction}", s.handleAction)
	s.mux.HandleFunc("GET /v1/simulations/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/simulations/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/simulations/{id}/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("GET /v1/simulations/{id}/checkpoint", s.handleGetCheckpoint)
	s.mux.HandleFunc("PUT /v1/checkpoints/{id}", s.handlePutCheckpoint)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Telemetry exposes the aggregate recorder (tests assert on its counters).
func (s *Server) Telemetry() *telemetry.Shared { return s.shared }

// Shutdown gracefully stops the service: admission closes immediately
// (readyz flips to draining, submissions get 503), every already-accepted
// job — queued or in flight — runs to completion, and telemetry sinks are
// flushed. If ctx expires first, in-flight jobs are canceled cooperatively
// (they finish their quantum, report canceled with partial results, and
// still count as drained) and Shutdown waits for the workers to exit before
// returning the context's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queueHigh) // workers drain both backlogs, then exit
		close(s.queueNorm)
	}
	var toSuspend []*job
	if s.cfg.CheckpointDir != "" {
		for _, j := range s.jobs {
			toSuspend = append(toSuspend, j)
		}
	}
	s.mu.Unlock()
	// With a checkpoint directory, draining means suspending: every
	// non-terminal job checkpoints at its next quantum boundary instead of
	// running to completion, and resubmission resumes it. requestSuspend is
	// a no-op on settled jobs.
	for _, j := range toSuspend {
		j.requestSuspend()
	}
	s.cfg.Logf("delta-served: draining (%d jobs in flight)", s.inflight.Load())

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // cooperative cancel of in-flight runs
		<-done
	}
	if s.sink != nil {
		if ferr := s.sink.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	// Every accepted job has settled; end any long-poll still waiting.
	s.cancel()
	s.cfg.Logf("delta-served: drained")
	return err
}

// --- workers -----------------------------------------------------------------

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.dequeue()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// dequeue pops the next job, always preferring the high lane: a non-blocking
// high-lane check first, then a blocking select over both lanes. Closed
// channels keep yielding their buffered backlog (ok stays true until the
// lane is empty), so a draining server still finishes accepted work in lane
// order; both lanes closed and empty ends the worker.
func (s *Server) dequeue() (*job, bool) {
	select {
	case j, ok := <-s.queueHigh:
		if ok {
			return j, true
		}
		j, ok = <-s.queueNorm
		return j, ok
	default:
	}
	select {
	case j, ok := <-s.queueHigh:
		if ok {
			return j, true
		}
		j, ok = <-s.queueNorm
		return j, ok
	case j, ok := <-s.queueNorm:
		if ok {
			return j, true
		}
		j, ok = <-s.queueHigh
		return j, ok
	}
}

// queued is the combined backlog across both lanes.
func (s *Server) queued() int {
	return len(s.queueHigh) + len(s.queueNorm)
}

// runJob executes one accepted job end to end. A job whose suspend flag is
// raised (client :suspend call, or a draining shutdown with a checkpoint
// directory) stops at its next quantum boundary and persists a snapshot
// instead of finishing; resubmitting the same request resumes it.
func (s *Server) runJob(j *job) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer s.recoverJob(j)
	if j.suspendRequested() {
		// Suspended before reaching a worker (drain of the queue backlog).
		// A resume job's checkpoint is already on disk; a fresh job simply
		// restarts from scratch when resumed.
		s.shared.Count("served.jobs.suspended", 1)
		j.finish(api.StateSuspended, "", nil)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if s.cfg.JobTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer tcancel()
	}
	j.setCancel(cancel)
	j.setRunning()
	s.cfg.Logf("delta-served: job %s running (%s)", j.id, j.req.Policy)
	started := time.Now()

	rec := telemetry.Recorder(telemetry.NewMulti(s.shared, progressRecorder{j}))
	if s.sink != nil {
		rec = telemetry.NewMulti(rec, s.sink.Tag(j.id))
	}
	closeSink := func() {}
	if s.cfg.TelemetryDir != "" {
		cw, werr := columnar.NewWriter(columnar.Config{
			Dir:         filepath.Join(s.cfg.TelemetryDir, j.id),
			Job:         j.id,
			RetainBytes: s.cfg.TelemetryRetainBytes,
		})
		if werr != nil {
			// The simulation is worth more than its telemetry: log and run
			// without the columnar sink rather than failing the job.
			s.cfg.Logf("delta-served: job %s: columnar sink: %v", j.id, werr)
			s.shared.Count("served.telemetry.sink_errors", 1)
		} else {
			rec = telemetry.NewMulti(rec, cw)
			var closed bool
			// Closed explicitly before the job settles (so a client that
			// sees a terminal status reads fully-flushed segments) and again
			// from the defer for the early error paths.
			closeSink = func() {
				if closed {
					return
				}
				closed = true
				if cerr := cw.Close(); cerr != nil {
					s.cfg.Logf("delta-served: job %s: columnar close: %v", j.id, cerr)
					s.shared.Count("served.telemetry.sink_errors", 1)
				}
			}
			defer closeSink()
		}
	}
	var sim *delta.Simulator
	var err error
	if j.snapData != nil {
		var snap *delta.Snapshot
		if snap, err = delta.DecodeSnapshot(j.snapData); err == nil {
			sim, err = delta.Restore(snap, delta.WithRecorder(rec))
			if err == nil {
				s.shared.Count("served.jobs.resumed", 1)
			}
		}
	} else {
		cfg := config(j.req)
		cfg.Recorder = rec
		if sim, err = delta.New(delta.WithConfig(cfg)); err == nil {
			err = loadWorkloads(sim, j.req)
		}
	}
	if err != nil {
		// normalize() vets submissions, so reaching here is a server bug
		// (or a corrupt checkpoint); surface it as a failed job rather than
		// a hung one.
		s.shared.Count("served.jobs.failed", 1)
		j.finish(api.StateFailed, err.Error(), nil)
		return
	}
	s.shared.Count("served.simulations.executed", 1)
	res, runErr := runSim(sim, ctx)
	closeSink()
	result := toAPIResult(res, runErr != nil, time.Since(started))
	switch {
	case runErr == nil:
		s.shared.Count("served.jobs.completed", 1)
		j.finish(api.StateDone, "", result)
		// Persist before dropping the checkpoint: a crash between the two
		// leaves an orphan the startup sweep reclaims, never a lost result.
		s.storeResult(j)
		s.removeCheckpoint(j.id)
	case errors.Is(runErr, delta.ErrCanceled) && j.suspendRequested() && s.cfg.CheckpointDir != "":
		if serr := s.suspendCheckpoint(j, sim); serr != nil {
			s.cfg.Logf("delta-served: job %s suspend checkpoint failed: %v", j.id, serr)
			s.shared.Count("served.jobs.canceled", 1)
			j.finish(api.StateCanceled, "suspend checkpoint failed: "+serr.Error(), result)
		} else {
			s.shared.Count("served.jobs.suspended", 1)
			j.finish(api.StateSuspended, "", nil)
		}
	case errors.Is(runErr, delta.ErrCanceled):
		s.shared.Count("served.jobs.canceled", 1)
		j.finish(api.StateCanceled, runErr.Error(), result)
	default:
		s.shared.Count("served.jobs.failed", 1)
		j.finish(api.StateFailed, runErr.Error(), nil)
	}
	// Recycle the chip's arrays for the next job now that this one has read
	// its results and written any suspend checkpoint. A panic skips this on
	// purpose: a chip abandoned mid-run goes to the GC, not the free list.
	sim.Close()
	s.cfg.Logf("delta-served: job %s %s in %s", j.id, j.snapshot().Status, time.Since(started).Round(time.Millisecond))
}

// runSim runs a job's simulation; tests replace it to inject faults.
var runSim = (*delta.Simulator).RunCtx

// recoverJob contains a panic to the job that raised it: the job fails with
// the panic value, the stack goes to the log, and the worker goes on to the
// next job instead of taking the process and every other job down.
func (s *Server) recoverJob(j *job) {
	r := recover()
	if r == nil {
		return
	}
	s.cfg.Logf("delta-served: job %s panicked: %v\n%s", j.id, r, debug.Stack())
	s.shared.Count("served.jobs.panicked", 1)
	s.shared.Count("served.jobs.failed", 1)
	j.finish(api.StateFailed, fmt.Sprintf("internal error: simulation panicked: %v", r), nil)
}

// storeResult persists a settled job's document to the disk-backed result
// store when it is sound to replay (done, complete result).
func (s *Server) storeResult(j *job) {
	if s.results == nil {
		return
	}
	doc := j.snapshot()
	if !store.Storable(doc) {
		return
	}
	if err := s.results.Put(doc); err != nil {
		s.cfg.Logf("delta-served: job %s: result store: %v", j.id, err)
		s.shared.Count("served.store.errors", 1)
		return
	}
	s.shared.Count("served.store.writes", 1)
}

// suspendCheckpoint captures the canceled simulation — RunCtx returned, so
// the chip rests at an exact quantum boundary — and persists it under the
// job's content address.
func (s *Server) suspendCheckpoint(j *job, sim *delta.Simulator) error {
	snap, err := sim.Snapshot()
	if err != nil {
		return err
	}
	return s.writeCheckpoint(j.id, j.req, snap)
}

// loadWorkloads applies the normalized workload spec to a simulator.
func loadWorkloads(sim *delta.Simulator, req api.SubmitRequest) error {
	if req.Mix != "" {
		return sim.LoadMixE(req.Mix)
	}
	for i, app := range req.Apps {
		if err := sim.SetWorkloadE(i, delta.Workload{App: app}); err != nil {
			return err
		}
	}
	return nil
}

// toAPIResult converts a facade result to the wire form.
func toAPIResult(res delta.Result, partial bool, elapsed time.Duration) *api.Result {
	out := &api.Result{
		// GeoMeanIPC averages over the positive IPCs only (zero when none),
		// so partial results of a canceled run encode cleanly — no NaN in
		// the JSON, and byte-equal round trips for the result cache.
		GeomeanIPC:             res.GeoMeanIPC(),
		ControlMessageFraction: res.ControlMessageFraction,
		InvalidatedLines:       res.InvalidatedLines,
		Partial:                partial,
		ElapsedMS:              elapsed.Milliseconds(),
	}
	for _, c := range res.Cores {
		out.Cores = append(out.Cores, api.CoreResult{
			Core:         c.Core,
			Instructions: c.Instructions,
			Cycles:       c.Cycles,
			IPC:          c.IPC,
			MPKI:         c.MPKI,
			MemMPKI:      c.MemMPKI,
			LocalHitFrac: c.LocalHitFrac,
			MLP:          c.MLP,
		})
	}
	return out
}

// --- HTTP handlers -----------------------------------------------------------

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.shared.Count("served.rejected.invalid", 1)
		api.WriteError(w, http.StatusBadRequest, "invalid_config", "malformed request body: "+err.Error())
		return
	}
	if req.SchemaVersion != 0 && req.SchemaVersion != api.SchemaVersion {
		s.shared.Count("served.rejected.schema", 1)
		api.WriteError(w, http.StatusBadRequest, "schema_version",
			fmt.Sprintf("request pins schema version %d; this server speaks %d", req.SchemaVersion, api.SchemaVersion))
		return
	}
	norm, err := normalize(req)
	if err != nil {
		s.shared.Count("served.rejected.invalid", 1)
		api.WriteError(w, http.StatusBadRequest, "invalid_config", err.Error())
		return
	}
	id, err := cacheKey(norm)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	lane := s.queueNorm
	if req.Priority == api.PriorityHigh {
		lane = s.queueHigh
	}

	// A suspended match resumes instead of deduping; its checkpoint (written
	// before the job settled into suspended, so visible here) is read
	// outside the server lock.
	s.mu.Lock()
	j := s.jobs[id]
	suspended := j != nil && j.snapshot().Status == api.StateSuspended
	s.mu.Unlock()
	if j != nil && !suspended {
		s.shared.Count("served.singleflight.deduped", 1)
		api.WriteJSON(w, http.StatusOK, api.SubmitResponse{
			SchemaVersion: api.SchemaVersion, ID: id, Status: j.snapshot().Status, Deduped: true})
		return
	}
	if j == nil && s.results != nil {
		// Disk-backed cache hit: a prior process already completed this
		// content address. Rehydrate a settled job so GET/events work, and
		// reclaim any checkpoint the result has obsoleted.
		if doc, ok, serr := s.results.Get(id); serr == nil && ok && store.Storable(doc) {
			s.mu.Lock()
			if s.jobs[id] == nil {
				nj := newJob(id, norm)
				s.jobs[id] = nj
				s.mu.Unlock()
				nj.finish(doc.Status, doc.Error, doc.Result)
			} else {
				s.mu.Unlock()
			}
			s.removeCheckpoint(id)
			s.shared.Count("served.store.hits", 1)
			s.shared.Count("served.singleflight.deduped", 1)
			api.WriteJSON(w, http.StatusOK, api.SubmitResponse{
				SchemaVersion: api.SchemaVersion, ID: id, Status: api.StateDone, Deduped: true})
			return
		}
	}
	var snapData []byte
	resumed := suspended
	if cf, cerr := s.readCheckpoint(id); cerr != nil {
		// Corrupt or version-skewed checkpoint: log, run from scratch.
		s.cfg.Logf("delta-served: job %s: %v (restarting fresh)", id, cerr)
		s.removeCheckpoint(id)
	} else if cf != nil {
		snapData = cf.Snapshot
		resumed = true
	}

	s.mu.Lock()
	if cur := s.jobs[id]; cur != nil && cur != j {
		// Lost a race with a concurrent resubmission that already replaced
		// the suspended job; attach to the winner.
		s.mu.Unlock()
		s.shared.Count("served.singleflight.deduped", 1)
		api.WriteJSON(w, http.StatusOK, api.SubmitResponse{
			SchemaVersion: api.SchemaVersion, ID: id, Status: cur.snapshot().Status, Deduped: true})
		return
	}
	if s.draining {
		s.mu.Unlock()
		api.WriteError(w, http.StatusServiceUnavailable, "draining", "server is draining; not accepting new simulations")
		return
	}
	nj := newJob(id, norm)
	nj.snapData = snapData
	select {
	case lane <- nj:
		s.jobs[id] = nj
		s.mu.Unlock()
		s.shared.Count("served.jobs.accepted", 1)
		if req.Priority == api.PriorityHigh {
			s.shared.Count("served.jobs.accepted_high", 1)
		}
		if resumed {
			s.shared.Count("served.jobs.resume_accepted", 1)
		}
		w.Header().Set("Location", "/v1/simulations/"+id)
		api.WriteJSON(w, http.StatusAccepted, api.SubmitResponse{
			SchemaVersion: api.SchemaVersion, ID: id, Status: api.StateQueued, Resumed: resumed})
	default:
		queued := s.queued()
		s.mu.Unlock()
		s.shared.Count("served.rejected.queue_full", 1)
		retry := queued / s.workers
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		api.WriteError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("queue full (%d waiting); retry after %ds", queued, retry))
	}
}

// handleAction dispatches custom-method URLs of the form
// /v1/simulations/{id}:{action}. The only action is "suspend": stop the job
// at its next quantum boundary and checkpoint it for later resumption.
func (s *Server) handleAction(w http.ResponseWriter, r *http.Request) {
	id, action, ok := strings.Cut(r.PathValue("idAction"), ":")
	if !ok || action != "suspend" {
		api.WriteError(w, http.StatusBadRequest, "invalid_config",
			fmt.Sprintf("unknown action %q; only :suspend is supported", action))
		return
	}
	if s.cfg.CheckpointDir == "" {
		api.WriteError(w, http.StatusConflict, "not_suspendable",
			"server runs without a checkpoint directory; suspension is disabled")
		return
	}
	j := s.lookup(id)
	if j == nil {
		api.WriteError(w, http.StatusNotFound, "unknown_job", "no simulation with this id")
		return
	}
	doc := j.snapshot()
	switch {
	case doc.Status.Terminal():
		api.WriteError(w, http.StatusConflict, "not_suspendable",
			fmt.Sprintf("job is already %s", doc.Status))
		return
	case doc.Status == api.StateSuspended:
		// Idempotent: already suspended.
		api.WriteJSON(w, http.StatusOK, doc)
		return
	}
	j.requestSuspend()
	s.shared.Count("served.suspend.requested", 1)
	// Suspension is asynchronous — the simulation stops at its next quantum
	// boundary; poll the job document for status "suspended".
	api.WriteJSON(w, http.StatusAccepted, j.snapshot())
}

// handleGet serves a job's document. With ?wait=<duration> it is a
// long-poll: the answer comes when the job settles (terminal or suspended),
// the wait (capped at api.MaxWait) elapses, the client goes away or the
// server stops, so a watcher needs one request per settlement instead of
// one per poll tick.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	wait, err := api.ParseWait(r.URL.Query().Get("wait"))
	if err != nil {
		s.shared.Count("served.rejected.invalid", 1)
		api.WriteError(w, http.StatusBadRequest, "invalid_wait", err.Error())
		return
	}
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		api.WriteError(w, http.StatusNotFound, "unknown_job", "no simulation with this id")
		return
	}
	api.AwaitSettled(r.Context(), wait, j.done, s.baseCtx.Done())
	api.WriteJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		api.WriteError(w, http.StatusNotFound, "unknown_job", "no simulation with this id")
		return
	}
	replay, live := j.subscribe()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, ev := range replay {
		if enc.Encode(ev) != nil {
			return
		}
	}
	flush()
	if live == nil {
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if enc.Encode(ev) != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleTelemetry streams a job's columnar time series as NDJSON, one
// api.TelemetryRow per line. Query parameters: from/to bound the cycle range
// (inclusive; to=0 or absent means unbounded), res selects the resolution
// (1, 10 or 100; a tier with no data falls back to the next finer one, and
// each row reports the resolution actually served), tags restricts to a
// comma-separated list of emitter tags. Segments outlive jobs: suspended and
// completed jobs — and jobs from before a server restart — stay queryable as
// long as their segment directory exists.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if s.cfg.TelemetryDir == "" {
		api.WriteError(w, http.StatusConflict, "no_telemetry",
			"server runs without a telemetry directory; columnar telemetry is disabled")
		return
	}
	id := r.PathValue("id")
	q, err := parseTelemetryQuery(r)
	if err != nil {
		s.shared.Count("served.rejected.invalid", 1)
		api.WriteError(w, http.StatusBadRequest, "invalid_range", err.Error())
		return
	}
	dir, err := columnar.OpenDir(filepath.Join(s.cfg.TelemetryDir, id))
	if errors.Is(err, fs.ErrNotExist) {
		// No segments on disk: distinguish a job this server has never heard
		// of from a known job whose telemetry was never written (sink error,
		// retention, or a job accepted before -telemetry-dir was set).
		if s.lookup(id) == nil {
			api.WriteError(w, http.StatusNotFound, "unknown_job", "no simulation with this id")
		} else {
			api.WriteError(w, http.StatusNotFound, "no_telemetry", "no telemetry recorded for this simulation")
		}
		return
	}
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	for _, tag := range q.Tags {
		if !dir.HasTag(tag) {
			api.WriteError(w, http.StatusBadRequest, "unknown_tag",
				fmt.Sprintf("tag %q not present in this simulation's telemetry (have %q)", tag, dir.Tags()))
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	if err := dir.Range(q, func(row columnar.Row) bool {
		return enc.Encode(row) == nil && r.Context().Err() == nil
	}); err != nil {
		// Mid-stream failure: the status line is gone; truncate the stream.
		s.cfg.Logf("delta-served: telemetry stream for %s: %v", id, err)
	}
	s.shared.Count("served.telemetry.queries", 1)
}

// parseTelemetryQuery validates the range-query parameters.
func parseTelemetryQuery(r *http.Request) (columnar.Query, error) {
	var q columnar.Query
	vals := r.URL.Query()
	if v := vals.Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return q, fmt.Errorf("from must be a non-negative cycle number: %q", v)
		}
		q.From = n
	}
	if v := vals.Get("to"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return q, fmt.Errorf("to must be a non-negative cycle number: %q", v)
		}
		q.To = n
	}
	if q.To > 0 && q.From > q.To {
		return q, fmt.Errorf("empty range: from (%d) exceeds to (%d)", q.From, q.To)
	}
	if v := vals.Get("res"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return q, fmt.Errorf("res must be 1, 10 or 100: %q", v)
		}
		if _, err := columnar.TierOf(n); err != nil {
			return q, err
		}
		q.Res = n
	}
	if v := vals.Get("tags"); v != "" {
		q.Tags = strings.Split(v, ",")
	}
	return q, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	s.mu.Lock()
	if s.draining {
		status = "draining"
	}
	s.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, api.Health{
		Status:        status,
		Version:       s.cfg.Version,
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Inflight:      s.inflight.Load(),
		Queued:        s.queued(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		api.WriteError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.shared.Snapshot()
	snap.Gauges["served.queue.depth"] = float64(s.queued())
	snap.Gauges["served.queue.depth_high"] = float64(len(s.queueHigh))
	snap.Gauges["served.jobs.inflight"] = float64(s.inflight.Load())
	snap.Gauges["served.uptime.seconds"] = time.Since(s.start).Seconds()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WritePrometheus(w, snap); err != nil {
		log.Printf("delta-served: /metrics write: %v", err)
	}
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}
