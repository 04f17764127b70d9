package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"delta"
	"delta/internal/server/api"
	"delta/internal/telemetry"
)

// normalize resolves a submission's defaults and validates it without
// building a chip: policy and core-count checks are the facade's, app
// short codes resolve to full model names (so "mcf" and "429.mcf" are the
// same content address), and workload shape errors surface as
// invalid_config. The returned request is canonical: byte-identical for any
// two submissions that would run bit-identical simulations.
func normalize(req api.SubmitRequest) (api.SubmitRequest, error) {
	// The pinned schema version and priority lane are transport metadata,
	// not simulation identity: they must not perturb the content address.
	req.SchemaVersion = 0
	switch req.Priority {
	case "", api.PriorityNormal, api.PriorityHigh:
		req.Priority = ""
	default:
		return req, fmt.Errorf("unknown priority %q (want %q or %q)", req.Priority, api.PriorityNormal, api.PriorityHigh)
	}
	if req.Policy == "" {
		req.Policy = string(delta.PolicyDelta)
	}
	cfg := delta.Config{
		Cores:              req.Cores,
		Policy:             delta.PolicyKind(req.Policy),
		TimeCompression:    req.TimeCompression,
		WarmupInstructions: req.WarmupInstructions,
		BudgetInstructions: req.BudgetInstructions,
		Multithreaded:      req.Multithreaded,
		Seed:               req.Seed,
	}.Canonical()
	// The facade's own checks: policy names resolve through the registry,
	// so externally registered policies are submittable and the rejection
	// lists what exists.
	if err := cfg.Validate(); err != nil {
		return req, err
	}
	if (req.Mix == "") == (len(req.Apps) == 0) {
		return req, fmt.Errorf("exactly one of mix or apps is required")
	}
	if req.Mix != "" {
		known := false
		for _, name := range delta.MixNames() {
			if name == req.Mix {
				known = true
				break
			}
		}
		if !known {
			return req, fmt.Errorf("unknown mix %q", req.Mix)
		}
		if cfg.Cores%16 != 0 {
			return req, fmt.Errorf("mix workloads need a multiple of 16 cores, got %d", cfg.Cores)
		}
	} else {
		if len(req.Apps) != 1 && len(req.Apps) != cfg.Cores {
			return req, fmt.Errorf("apps must have 1 or %d entries, got %d", cfg.Cores, len(req.Apps))
		}
		apps := make([]string, len(req.Apps))
		for i, name := range req.Apps {
			app, err := delta.LookupApp(name)
			if err != nil {
				return req, fmt.Errorf("unknown application %q", name)
			}
			apps[i] = app.Name
		}
		if len(apps) == 1 {
			rep := make([]string, cfg.Cores)
			for i := range rep {
				rep[i] = apps[0]
			}
			apps = rep
		}
		req.Apps = apps
	}
	if req.Scenario != nil {
		// Canonicalize app names inside the scenario (short code → full
		// name) on a deep copy so the caller's struct is never aliased, then
		// validate against the workload's occupancy: both mix and apps
		// submissions fill every core, so validation starts all-occupied.
		sc := req.Scenario.Canonical()
		if err := sc.Validate(cfg.Cores, nil); err != nil {
			return req, err
		}
		req.Scenario = sc
	}
	req.Policy = string(cfg.Policy)
	req.Cores = cfg.Cores
	req.TimeCompression = cfg.TimeCompression
	req.WarmupInstructions = cfg.WarmupInstructions
	req.BudgetInstructions = cfg.BudgetInstructions
	req.Seed = cfg.Seed
	return req, nil
}

// config converts a normalized request into the facade configuration.
func config(req api.SubmitRequest) delta.Config {
	return delta.Config{
		Cores:              req.Cores,
		Policy:             delta.PolicyKind(req.Policy),
		TimeCompression:    req.TimeCompression,
		WarmupInstructions: req.WarmupInstructions,
		BudgetInstructions: req.BudgetInstructions,
		Multithreaded:      req.Multithreaded,
		Seed:               req.Seed,
		Scenario:           req.Scenario,
	}
}

// cacheKey derives the content address of a normalized request: the hex
// SHA-256 of the facade's canonical config serialization plus the canonical
// workload spec. Two requests hash equal iff their simulations are
// bit-identical, which is what makes the result cache and single-flight
// deduplication sound.
func cacheKey(req api.SubmitRequest) (string, error) {
	cfgJSON, err := config(req).CanonicalJSON()
	if err != nil {
		return "", err
	}
	wl, err := json.Marshal(struct {
		Mix  string
		Apps []string
	}{req.Mix, req.Apps})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(cfgJSON)
	h.Write([]byte{0})
	h.Write(wl)
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

// ContentAddress normalizes a submission and derives its content address —
// the same normalization and hash the submit path uses, exported so a fleet
// coordinator routes a job to the identical address its workers will compute
// (consistent-hash routing depends on every party agreeing on the key).
func ContentAddress(req api.SubmitRequest) (api.SubmitRequest, string, error) {
	norm, err := normalize(req)
	if err != nil {
		return req, "", err
	}
	id, err := cacheKey(norm)
	if err != nil {
		return req, "", err
	}
	return norm, id, nil
}

// maxReplayEvents bounds each job's progress replay buffer; late /events
// subscribers see at most this many historical lines.
const maxReplayEvents = 1024

// job is one accepted simulation: its identity (the content address),
// normalized request, lifecycle state, result, and progress subscribers.
// Resumed jobs additionally carry the encoded snapshot they continue from.
type job struct {
	id  string
	req api.SubmitRequest
	// snapData, when non-nil, is an encoded delta.Snapshot the worker
	// restores instead of building a fresh simulator.
	snapData []byte

	mu         sync.Mutex
	status     api.JobState
	errMsg     string
	result     *api.Result
	events     []api.ProgressEvent
	subs       []chan api.ProgressEvent
	done       chan struct{}
	cancel     func() // set while running; cancels the job's run context
	suspendReq bool
}

func newJob(id string, req api.SubmitRequest) *job {
	return &job{id: id, req: req, status: api.StateQueued, done: make(chan struct{})}
}

// snapshot renders the job's current API document.
func (j *job) snapshot() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := api.Job{SchemaVersion: api.SchemaVersion, ID: j.id, Status: j.status, Request: j.req, Error: j.errMsg}
	if j.result != nil {
		r := *j.result
		doc.Result = &r
	}
	return doc
}

// setRunning transitions queued → running and notifies subscribers.
func (j *job) setRunning() {
	j.mu.Lock()
	j.status = api.StateRunning
	j.publishLocked(api.ProgressEvent{Type: "status", Status: api.StateRunning})
	j.mu.Unlock()
}

// setCancel installs the running job's context cancel function; if a suspend
// was requested before the run context existed, it fires immediately.
func (j *job) setCancel(fn func()) {
	j.mu.Lock()
	j.cancel = fn
	fire := j.suspendReq
	j.mu.Unlock()
	if fire && fn != nil {
		fn()
	}
}

// requestSuspend marks the job for checkpoint-instead-of-discard and stops
// its run at the next quantum boundary. Safe to call in any state; terminal
// jobs ignore it.
func (j *job) requestSuspend() {
	j.mu.Lock()
	j.suspendReq = true
	fn := j.cancel
	j.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// suspendRequested reports whether requestSuspend was called.
func (j *job) suspendRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.suspendReq
}

// finish moves the job to a settled state (terminal, or suspended awaiting
// resubmission), publishes the final "done" progress line, closes every
// subscriber, and wakes waiters. A job settles once: a later call (a panic
// contained after the job finished) changes nothing. A suspended job never
// transitions again: resuming replaces it with a fresh job under the same ID.
func (j *job) finish(status api.JobState, errMsg string, result *api.Result) {
	j.mu.Lock()
	select {
	case <-j.done:
		j.mu.Unlock()
		return
	default:
	}
	j.status = status
	j.errMsg = errMsg
	j.result = result
	j.publishLocked(api.ProgressEvent{Type: "done", Status: status})
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	close(j.done)
	j.mu.Unlock()
}

// publish appends a progress event and forwards it to live subscribers.
func (j *job) publish(ev api.ProgressEvent) {
	j.mu.Lock()
	j.publishLocked(ev)
	j.mu.Unlock()
}

func (j *job) publishLocked(ev api.ProgressEvent) {
	if len(j.events) < maxReplayEvents {
		j.events = append(j.events, ev)
	}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall the simulation
		}
	}
}

// subscribe returns the replay buffer and, for a live job, a channel of
// subsequent events that is closed when the job finishes. Terminal jobs
// return a nil channel: the replay already ends with the "done" line.
func (j *job) subscribe() ([]api.ProgressEvent, chan api.ProgressEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay := make([]api.ProgressEvent, len(j.events))
	copy(replay, j.events)
	// Suspended jobs have settled too: their replay ends with the "done"
	// line and the resumed job (a fresh object) carries its own stream.
	if j.status.Terminal() || j.status == api.StateSuspended {
		return replay, nil
	}
	ch := make(chan api.ProgressEvent, 256)
	j.subs = append(j.subs, ch)
	return replay, ch
}

// progressRecorder adapts the job's progress stream to telemetry.Recorder:
// reconfiguration events and chip-wide samples forward to subscribers;
// counters and gauges are aggregate-only and flow to the server's shared
// recorder instead. It is safe for concurrent use (job.publish locks), which
// Multi requires of each branch when chips run on worker goroutines.
type progressRecorder struct{ j *job }

// Event implements telemetry.Recorder.
func (p progressRecorder) Event(ev telemetry.Event) {
	p.j.publish(api.ProgressEvent{
		Type:  "event",
		Kind:  ev.Kind.String(),
		Core:  ev.Core,
		Bank:  ev.Bank,
		Ways:  ev.Ways,
		Cycle: ev.Cycle,
	})
}

// Sample implements telemetry.Recorder, forwarding only the chip-wide
// series: per-tile samples would multiply the stream by the core count
// without telling a progress watcher much.
func (p progressRecorder) Sample(s telemetry.Sample) {
	if s.Tile != telemetry.ChipWide {
		return
	}
	p.j.publish(api.ProgressEvent{
		Type:        "sample",
		NoCLinkUtil: s.NoCLinkUtil,
		MCUQueue:    s.MCUQueue,
		Cycle:       s.Cycle,
	})
}

// Count implements telemetry.Recorder (aggregates are not part of the
// per-job progress stream).
func (progressRecorder) Count(string, uint64) {}

// Gauge implements telemetry.Recorder.
func (progressRecorder) Gauge(string, float64) {}

// Flush implements telemetry.Recorder.
func (progressRecorder) Flush() error { return nil }
