// Package api defines the JSON wire types of the delta-served HTTP API.
// Both the server (internal/server) and the Go client
// (internal/server/client) build against these, so the two cannot drift.
// It also holds the response and long-poll helpers that delta-served and
// delta-coord (internal/fabric) share, so both answer alike.
//
// All simulation requests are declarative — a workload is named (a Table IV
// mix or SPEC CPU2006 models), never supplied as code — which is what makes
// results content-addressable: the canonical form of a request fully
// determines the simulation's output.
package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"delta/internal/scenario"
)

// SchemaVersion is the wire-format version of this API. Clients may pin it
// in SubmitRequest.SchemaVersion (zero means "current"); a mismatch is
// rejected with a structured 400 whose code is "schema_version". Servers
// stamp it on every SubmitResponse and Job document.
const SchemaVersion = 1

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle. Accepted jobs move queued → running → one of the three
// terminal states; terminal jobs never change again and their results are
// served from the content-addressed cache. Suspended is NOT terminal: a
// suspended job checkpointed its simulation state and resubmitting the same
// request resumes it from that checkpoint.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateSuspended JobState = "suspended"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final. Suspended jobs are not
// terminal — they resume on resubmission.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// SubmitRequest describes one simulation. Exactly one of Mix or Apps selects
// the workload; zero-valued knobs take the simulator's defaults (policy
// delta, 16 cores, the paper's compressed warmup/budget windows, seed 1).
type SubmitRequest struct {
	// SchemaVersion pins the wire-format version the client was built
	// against. Zero means "current"; any other value that is not
	// SchemaVersion is rejected with code "schema_version".
	SchemaVersion int `json:"schema_version,omitempty"`
	// Policy is any registered policy name (the built-ins are snuca,
	// private, delta, ideal, lfoc, carma, bankbw); unknown names are
	// rejected with an invalid_config error listing the registry.
	Policy string `json:"policy,omitempty"`
	// Cores is the tile count (power-of-two perfect square; mixes need a
	// multiple of 16).
	Cores int `json:"cores,omitempty"`
	// Mix names a Table IV mix (w1..w15).
	Mix string `json:"mix,omitempty"`
	// Apps assigns SPEC CPU2006 models (full names or short codes) to
	// cores: one entry replicates to every core, otherwise len(Apps) must
	// equal Cores.
	Apps []string `json:"apps,omitempty"`
	// WarmupInstructions and BudgetInstructions set the per-core
	// fast-forward and measured windows.
	WarmupInstructions uint64 `json:"warmup_instructions,omitempty"`
	BudgetInstructions uint64 `json:"budget_instructions,omitempty"`
	// TimeCompression divides the paper's reconfiguration intervals.
	TimeCompression uint64 `json:"time_compression,omitempty"`
	// Multithreaded enables R-NUCA-style shared-page handling.
	Multithreaded bool `json:"multithreaded,omitempty"`
	// Seed drives workload randomness.
	Seed uint64 `json:"seed,omitempty"`
	// Scenario scripts dynamic events (workload arrivals, departures, core
	// migrations, load spikes, phase storms) applied at quantum boundaries.
	// It changes results and is part of the content address; submissions
	// differing only in scenario are distinct jobs. Validated on submit
	// (structured 400, code invalid_config) against the schema and the
	// workload's initial occupancy.
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
	// Priority selects the admission lane: "high" jobs are dequeued before
	// "normal" (the default, also spelled ""). Priority is transport
	// metadata like SchemaVersion — it never perturbs the content address,
	// so a high-priority resubmission of a normal job dedupes against it.
	Priority string `json:"priority,omitempty"`
}

// Priority lanes accepted by SubmitRequest.Priority.
const (
	PriorityNormal = "normal"
	PriorityHigh   = "high"
)

// SubmitResponse acknowledges a submission. ID is the content address of the
// canonical request: resubmitting an equivalent request yields the same ID.
type SubmitResponse struct {
	SchemaVersion int      `json:"schema_version"`
	ID            string   `json:"id"`
	Status        JobState `json:"status"`
	// Deduped is true when the submission attached to an existing job
	// (in-flight single-flight hit or a finished cached result) instead of
	// enqueueing a new simulation.
	Deduped bool `json:"deduped,omitempty"`
	// Resumed is true when the submission matched a suspended job (in memory
	// or a checkpoint on disk) and the simulation continues from its
	// checkpoint instead of starting over.
	Resumed bool `json:"resumed,omitempty"`
}

// CoreResult is one core's measured performance.
type CoreResult struct {
	Core         int     `json:"core"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
	MPKI         float64 `json:"mpki"`
	MemMPKI      float64 `json:"mem_mpki"`
	LocalHitFrac float64 `json:"local_hit_frac"`
	MLP          float64 `json:"mlp"`
}

// Result is a completed (or partially completed) simulation's output.
type Result struct {
	GeomeanIPC             float64      `json:"geomean_ipc"`
	Cores                  []CoreResult `json:"cores"`
	ControlMessageFraction float64      `json:"control_message_fraction"`
	InvalidatedLines       uint64       `json:"invalidated_lines"`
	// Partial marks measurements from a run stopped by deadline or
	// shutdown before every core crossed its budget.
	Partial bool `json:"partial,omitempty"`
	// ElapsedMS is the wall-clock execution time of the simulation.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// Job is the status document served at /v1/simulations/{id}.
type Job struct {
	SchemaVersion int           `json:"schema_version"`
	ID            string        `json:"id"`
	Status        JobState      `json:"status"`
	Request       SubmitRequest `json:"request"`
	// Error describes why a failed/canceled job stopped.
	Error string `json:"error,omitempty"`
	// Result is set once the job is done (and, with partial data, on
	// deadline-canceled jobs).
	Result *Result `json:"result,omitempty"`
}

// MaxWait caps the long-poll a status request may ask for: a longer ?wait=
// is served as MaxWait.
const MaxWait = 30 * time.Second

// ParseWait reads the ?wait= parameter of GET /v1/simulations/{id}, a Go
// duration ("2s", "500ms"). With a positive wait the server answers as soon
// as the job settles (terminal or suspended), or with the current document
// once the wait elapses; empty or zero answers at once, as without the
// parameter. Malformed or negative values are errors, which servers answer
// with a structured 400 "invalid_wait".
func ParseWait(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("wait must be a non-negative Go duration such as 2s: %q", v)
	}
	return min(d, MaxWait), nil
}

// AwaitSettled is the long-poll behind ?wait=: it returns once done closes
// (the job settled), wait elapses, ctx ends (the client went away) or stop
// closes (the server is shutting down). A wait <= 0 returns at once.
func AwaitSettled(ctx context.Context, wait time.Duration, done, stop <-chan struct{}) {
	if wait <= 0 {
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	case <-ctx.Done():
	case <-stop:
	}
}

// WriteJSON answers with status and v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and a structured ErrorBody.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg}})
}

// BatchRequest submits many simulations at once (POST /v1/batch on the
// coordinator). The response is NDJSON: one BatchItem per job, written in
// completion order — not submission order — as results arrive; Index maps a
// line back to its request.
type BatchRequest struct {
	// SchemaVersion pins the wire-format version; zero means "current".
	SchemaVersion int `json:"schema_version,omitempty"`
	// Jobs are the simulations to run. Duplicates are welcome: identical
	// requests share one content address and cost one simulation fleet-wide.
	Jobs []SubmitRequest `json:"jobs"`
}

// BatchItem is one line of the POST /v1/batch NDJSON response stream.
type BatchItem struct {
	// Index is the job's position in BatchRequest.Jobs.
	Index int `json:"index"`
	// ID is the job's content address (empty when the request was invalid).
	ID string `json:"id,omitempty"`
	// Status is the job's settled state; "failed" items carry Error.
	Status JobState `json:"status"`
	// Error describes a rejected or failed job.
	Error string `json:"error,omitempty"`
	// Result is set for done (and partially-canceled) jobs.
	Result *Result `json:"result,omitempty"`
}

// WorkerState is a fleet member's health state as seen by the coordinator.
type WorkerState string

const (
	// WorkerUp members receive routed jobs.
	WorkerUp WorkerState = "up"
	// WorkerDraining members are being removed: their in-flight jobs are
	// suspended and handed to peers; no new jobs route to them.
	WorkerDraining WorkerState = "draining"
	// WorkerDown members failed consecutive health checks; their in-flight
	// jobs were resubmitted to surviving peers.
	WorkerDown WorkerState = "down"
)

// WorkerInfo is one fleet member in a FleetStatus document.
type WorkerInfo struct {
	// URL is the worker's base URL (its identity on the hash ring).
	URL   string      `json:"url"`
	State WorkerState `json:"state"`
	// Jobs is how many tracked in-flight jobs currently route to this
	// worker.
	Jobs int `json:"jobs"`
	// ConsecutiveFails counts health probes failed in a row.
	ConsecutiveFails int `json:"consecutive_fails,omitempty"`
}

// FleetStatus is the GET /v1/fleet document.
type FleetStatus struct {
	SchemaVersion int          `json:"schema_version"`
	Status        string       `json:"status"` // "ok" or "draining"
	Workers       []WorkerInfo `json:"workers"`
	// Jobs is the number of tracked (non-settled) jobs fleet-wide.
	Jobs int `json:"jobs"`
	// StoredResults counts completed results in the coordinator's
	// disk-backed content-addressed store (-1 when the store is disabled).
	StoredResults int `json:"stored_results"`
}

// RegisterWorkerRequest adds a worker to the fleet
// (POST /v1/fleet/workers).
type RegisterWorkerRequest struct {
	URL string `json:"url"`
}

// CheckpointTransfer is a suspended job's portable checkpoint — the wire
// form of the worker's on-disk checkpoint file, served at
// GET /v1/simulations/{id}/checkpoint and accepted at
// PUT /v1/checkpoints/{id}. It is what makes jobs migratable: a coordinator
// fetches the checkpoint from a draining worker, uploads it to the new
// owner, and resubmits the request there, which resumes from the exact
// quantum boundary.
type CheckpointTransfer struct {
	SchemaVersion int `json:"schema_version"`
	// ID is the job's content address; the receiving worker recomputes it
	// from Request and rejects a mismatch.
	ID      string        `json:"id"`
	Request SubmitRequest `json:"request"`
	// Snapshot is the encoded delta.Snapshot.
	Snapshot json.RawMessage `json:"snapshot"`
}

// ErrorBody is the structured error envelope of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a stable machine-readable code plus a human message.
type ErrorDetail struct {
	// Code is one of invalid_config | schema_version | unknown_job |
	// not_suspendable | queue_full | draining | invalid_range | unknown_tag |
	// no_telemetry | no_checkpoint | checkpoint_mismatch | no_workers |
	// batch_too_large | unknown_worker | internal.
	Code    string `json:"code"`
	Message string `json:"message"`
}

// TelemetryRow is one line of the /v1/simulations/{id}/telemetry NDJSON
// stream: a decoded columnar time-series point. Rows arrive in on-disk order
// (cycles non-decreasing within each tag).
type TelemetryRow struct {
	// Job is the owning job's content address.
	Job string `json:"job,omitempty"`
	// Tag is the emitter tag (empty for a single-chip simulation).
	Tag string `json:"tag,omitempty"`
	// Res is the resolution factor actually served: 1 (raw per-quantum), 10
	// or 100. It may be finer than requested when a downsampling tier holds
	// no data.
	Res int `json:"res"`
	// Cycle is the sample's simulated time; downsampled rows carry the last
	// cycle of their window.
	Cycle uint64 `json:"cycle"`
	// Tile is the tile index, or -1 for chip-wide samples.
	Tile int `json:"tile"`

	IPC         float64 `json:"ipc,omitempty"`
	MPKI        float64 `json:"mpki,omitempty"`
	BankFill    float64 `json:"fill,omitempty"`
	BankHitRate float64 `json:"hit_rate,omitempty"`
	NoCLinkUtil float64 `json:"noc_util,omitempty"`
	MCUQueue    float64 `json:"mcu_queue,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	Status  string `json:"status"` // "ok" or "draining"
	Version string `json:"version"`
	// UptimeSeconds is the process age.
	UptimeSeconds int64 `json:"uptime_seconds"`
	// Inflight and Queued report load (running jobs and queue backlog) so a
	// coordinator's health probes double as placement telemetry.
	Inflight int64 `json:"inflight"`
	Queued   int   `json:"queued"`
}

// ProgressEvent is one line of the /v1/simulations/{id}/events JSONL stream:
// status transitions, the job's telemetry reconfiguration events, chip-wide
// progress samples, and a final "done" line when the job reaches a terminal
// state.
type ProgressEvent struct {
	Type string `json:"type"` // status | event | sample | done
	// Status accompanies type=status and type=done.
	Status JobState `json:"status,omitempty"`
	// Telemetry payload (type=event): the reconfiguration event kind and
	// its chip coordinates.
	Kind string `json:"kind,omitempty"`
	Core int    `json:"core,omitempty"`
	Bank int    `json:"bank,omitempty"`
	Ways int    `json:"ways,omitempty"`
	// Sample payload (type=sample): chip-wide utilization.
	NoCLinkUtil float64 `json:"noc_link_util,omitempty"`
	MCUQueue    float64 `json:"mcu_queue,omitempty"`
	// Cycle stamps event and sample lines with simulated time.
	Cycle uint64 `json:"cycle,omitempty"`
}
