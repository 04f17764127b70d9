// Package client is the Go client for the delta-served HTTP API: typed
// submit/poll/stream calls over the wire types of internal/server/api, with
// 429 backpressure surfaced as a typed error carrying the server's
// Retry-After hint.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"time"

	"delta/internal/server/api"
)

// Client talks to one delta-served instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry, when non-nil, transparently retries transient failures
	// (network errors, 429 queue-full honoring Retry-After, 503 draining)
	// with exponential backoff, and resumes suspended jobs inside Wait/Run
	// by resubmitting their content-addressed request.
	Retry *RetryPolicy
}

// New builds a client for the server at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// RetryPolicy tunes the client's transient-failure handling. The zero value
// (of the fields) picks sane defaults: 6 attempts, 200ms initial backoff
// doubling to a 5s cap.
type RetryPolicy struct {
	// MaxAttempts bounds tries per operation; <= 0 means 6.
	MaxAttempts int
	// BaseDelay is the first backoff; <= 0 means 200ms. Each retry doubles
	// it, capped at MaxDelay; a server Retry-After hint overrides when
	// longer.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; <= 0 means 5s.
	MaxDelay time.Duration
}

func (p *RetryPolicy) attempts() int {
	if p == nil || p.MaxAttempts <= 0 {
		return 6
	}
	return p.MaxAttempts
}

func (p *RetryPolicy) backoff(attempt int, hint time.Duration) time.Duration {
	base, cap := 200*time.Millisecond, 5*time.Second
	if p != nil && p.BaseDelay > 0 {
		base = p.BaseDelay
	}
	if p != nil && p.MaxDelay > 0 {
		cap = p.MaxDelay
	}
	d := base << attempt
	if d > cap || d <= 0 {
		d = cap
	}
	if hint > d {
		d = hint
	}
	return d
}

// retryable reports whether an error is worth another attempt: transport
// failures (server restarting), queue backpressure, and draining windows.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode == http.StatusTooManyRequests ||
			apiErr.StatusCode == http.StatusServiceUnavailable
	}
	return err != nil // network-level failure
}

// withRetry runs f under the client's retry policy (or once without one).
func (c *Client) withRetry(ctx context.Context, f func() error) error {
	if c.Retry == nil {
		return f()
	}
	var err error
	for attempt := 0; attempt < c.Retry.attempts(); attempt++ {
		if attempt > 0 {
			var hint time.Duration
			var apiErr *APIError
			if errors.As(err, &apiErr) {
				hint = apiErr.RetryAfter
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.Retry.backoff(attempt-1, hint)):
			}
		}
		if err = f(); err == nil || !retryable(err) {
			return err
		}
	}
	return err
}

// APIError is a non-2xx response: the HTTP status, the server's structured
// error body, and (for 429) the parsed Retry-After hint.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("delta-served: %s (%d %s)", e.Message, e.StatusCode, e.Code)
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delta-seconds ("3") or an HTTP-date ("Fri, 08 Aug 2026 17:00:00 GMT").
// Unparseable or past values yield zero (retry immediately).
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON response into out (skipped when
// out is nil). Non-2xx responses decode the error envelope into an APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{StatusCode: resp.StatusCode}
		var envelope api.ErrorBody
		if json.NewDecoder(resp.Body).Decode(&envelope) == nil {
			apiErr.Code = envelope.Error.Code
			apiErr.Message = envelope.Error.Message
		}
		apiErr.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit enqueues a simulation (or attaches to an equivalent one: see
// SubmitResponse.Deduped). The request is pinned to the client's schema
// version unless the caller pinned one already. Queue-full returns an
// *APIError with status 429 and a RetryAfter hint; with a Retry policy set,
// transient failures are retried with backoff.
func (c *Client) Submit(ctx context.Context, req api.SubmitRequest) (api.SubmitResponse, error) {
	if req.SchemaVersion == 0 {
		req.SchemaVersion = api.SchemaVersion
	}
	var out api.SubmitResponse
	err := c.withRetry(ctx, func() error {
		return c.do(ctx, http.MethodPost, "/v1/simulations", req, &out)
	})
	return out, err
}

// Job fetches a job's status document.
func (c *Client) Job(ctx context.Context, id string) (api.Job, error) {
	return c.JobWait(ctx, id, 0)
}

// JobWait fetches a job's status document as a long-poll: the server answers
// as soon as the job settles (terminal or suspended), or with the current
// document once wait (capped at api.MaxWait) elapses. wait <= 0 is Job. A
// server that ignores the parameter answers at once.
func (c *Client) JobWait(ctx context.Context, id string, wait time.Duration) (api.Job, error) {
	path := "/v1/simulations/" + id
	if wait > 0 {
		path += "?wait=" + neturl.QueryEscape(wait.String())
	}
	var out api.Job
	err := c.withRetry(ctx, func() error {
		return c.do(ctx, http.MethodGet, path, nil, &out)
	})
	return out, err
}

// waitFor is how long one of Wait's status requests asks the server to hold
// the answer, so a running job costs one request per ten seconds.
const waitFor = 10 * time.Second

// Suspend asks the server to checkpoint the job at its next quantum boundary
// and release its worker. Suspension is asynchronous: the returned document
// usually still reads "running"; poll (or Wait) for "suspended". Requires a
// server with a checkpoint directory (409 not_suspendable otherwise).
func (c *Client) Suspend(ctx context.Context, id string) (api.Job, error) {
	var out api.Job
	err := c.do(ctx, http.MethodPost, "/v1/simulations/"+id+":suspend", nil, &out)
	return out, err
}

// Wait blocks until the job settles: a terminal state, or suspended. With a
// Retry policy set, a suspended job is instead resumed transparently — its
// content-addressed request is resubmitted (reattaching to the checkpoint)
// and the wait continues until the resumed run finishes. Each status request
// is a long-poll (JobWait), so the answer arrives as the job settles; poll
// is the minimum interval between two requests, the rate at which a server
// that ignores long-polls is polled.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (api.Job, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	var last api.Job
	// One resubmission per observed suspension: the server needs a moment to
	// replace the suspended job with the resumed one, and re-submitting on
	// every poll tick would hammer Submit while the document still reads
	// "suspended". The flag resets once the job is seen out of suspension,
	// so a job that suspends again (e.g. a second drain) resumes again.
	resubmitted := false
	for {
		start := time.Now()
		j, err := c.JobWait(ctx, id, waitFor)
		if err != nil {
			if ctx.Err() != nil {
				return last, ctx.Err()
			}
			return j, err
		}
		last = j
		if j.Status.Terminal() {
			return j, nil
		}
		if j.Status != api.StateSuspended {
			resubmitted = false
		} else {
			if c.Retry == nil {
				return j, nil
			}
			if !resubmitted {
				if _, err := c.Submit(ctx, j.Request); err != nil {
					return j, err
				}
				resubmitted = true
			}
		}
		select {
		case <-ctx.Done():
			return j, ctx.Err()
		case <-time.After(time.Until(start.Add(poll))):
		}
	}
}

// Run submits and waits: the one-call path for synchronous callers. Deduped
// submissions wait on the existing job, so concurrent Run calls with one
// request cost one simulation.
func (c *Client) Run(ctx context.Context, req api.SubmitRequest, poll time.Duration) (api.Job, error) {
	sub, err := c.Submit(ctx, req)
	if err != nil {
		return api.Job{}, err
	}
	return c.Wait(ctx, sub.ID, poll)
}

// Events streams the job's progress lines, invoking fn per event until the
// stream ends (terminal job) or ctx cancels. fn returning false stops early.
func (c *Client) Events(ctx context.Context, id string, fn func(api.ProgressEvent) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/simulations/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var envelope api.ErrorBody
		apiErr := &APIError{StatusCode: resp.StatusCode}
		if json.NewDecoder(resp.Body).Decode(&envelope) == nil {
			apiErr.Code = envelope.Error.Code
			apiErr.Message = envelope.Error.Message
		}
		return apiErr
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev api.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("delta-served: bad progress line: %w", err)
		}
		if !fn(ev) {
			return nil
		}
	}
	return sc.Err()
}

// TelemetryOpts selects a window of a job's columnar telemetry.
type TelemetryOpts struct {
	// From and To bound the cycle range, inclusive; To == 0 means unbounded.
	From, To uint64
	// Res requests a resolution factor: 1 (raw, default for 0), 10 or 100.
	// A tier with no data falls back to the next finer one; each row reports
	// the resolution actually served.
	Res int
	// Tags restricts to the given emitter tags; empty means all.
	Tags []string
}

// Telemetry streams the job's columnar time series, invoking fn per row
// until the range is exhausted or ctx cancels; fn returning false stops
// early. Requires a server running with a telemetry directory (409
// no_telemetry otherwise); unknown tags and malformed ranges surface as
// *APIError with codes unknown_tag / invalid_range.
func (c *Client) Telemetry(ctx context.Context, id string, opts TelemetryOpts, fn func(api.TelemetryRow) bool) error {
	vals := neturl.Values{}
	if opts.From > 0 {
		vals.Set("from", strconv.FormatUint(opts.From, 10))
	}
	if opts.To > 0 {
		vals.Set("to", strconv.FormatUint(opts.To, 10))
	}
	if opts.Res > 0 {
		vals.Set("res", strconv.Itoa(opts.Res))
	}
	if len(opts.Tags) > 0 {
		vals.Set("tags", strings.Join(opts.Tags, ","))
	}
	u := c.BaseURL + "/v1/simulations/" + id + "/telemetry"
	if len(vals) > 0 {
		u += "?" + vals.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var envelope api.ErrorBody
		apiErr := &APIError{StatusCode: resp.StatusCode}
		if json.NewDecoder(resp.Body).Decode(&envelope) == nil {
			apiErr.Code = envelope.Error.Code
			apiErr.Message = envelope.Error.Message
		}
		return apiErr
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var row api.TelemetryRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return fmt.Errorf("delta-served: bad telemetry line: %w", err)
		}
		if !fn(row) {
			return nil
		}
	}
	return sc.Err()
}

// Batch submits many simulations in one call against a coordinator
// (POST /v1/batch) and streams the results back in completion order,
// invoking fn per finished job until all lines arrive or ctx cancels; fn
// returning false stops early. Duplicate requests in one batch share a
// content address and cost one simulation fleet-wide.
func (c *Client) Batch(ctx context.Context, jobs []api.SubmitRequest, fn func(api.BatchItem) bool) error {
	body, err := json.Marshal(api.BatchRequest{SchemaVersion: api.SchemaVersion, Jobs: jobs})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var envelope api.ErrorBody
		apiErr := &APIError{StatusCode: resp.StatusCode}
		if json.NewDecoder(resp.Body).Decode(&envelope) == nil {
			apiErr.Code = envelope.Error.Code
			apiErr.Message = envelope.Error.Message
		}
		apiErr.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		return apiErr
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var item api.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			return fmt.Errorf("delta-served: bad batch line: %w", err)
		}
		if !fn(item) {
			return nil
		}
	}
	return sc.Err()
}

// AddWorker registers a delta-served worker with the coordinator.
func (c *Client) AddWorker(ctx context.Context, url string) (api.FleetStatus, error) {
	var out api.FleetStatus
	err := c.do(ctx, http.MethodPost, "/v1/fleet/workers", api.RegisterWorkerRequest{URL: url}, &out)
	return out, err
}

// RemoveWorker gracefully drains a worker out of the fleet: its in-flight
// jobs are suspended, their checkpoints handed to peers, and the jobs
// resumed there before the worker leaves the ring.
func (c *Client) RemoveWorker(ctx context.Context, url string) (api.FleetStatus, error) {
	var out api.FleetStatus
	err := c.do(ctx, http.MethodDelete, "/v1/fleet/workers?url="+neturl.QueryEscape(url), nil, &out)
	return out, err
}

// Checkpoint fetches a suspended job's portable checkpoint from a worker.
func (c *Client) Checkpoint(ctx context.Context, id string) (api.CheckpointTransfer, error) {
	var out api.CheckpointTransfer
	err := c.do(ctx, http.MethodGet, "/v1/simulations/"+id+"/checkpoint", nil, &out)
	return out, err
}

// PutCheckpoint uploads a portable checkpoint to a worker; submitting the
// carried request there afterwards resumes from it.
func (c *Client) PutCheckpoint(ctx context.Context, ct api.CheckpointTransfer) error {
	if ct.SchemaVersion == 0 {
		ct.SchemaVersion = api.SchemaVersion
	}
	return c.do(ctx, http.MethodPut, "/v1/checkpoints/"+ct.ID, ct, nil)
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var out api.Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}
