package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"delta/internal/server"
	"delta/internal/server/api"
)

// testWorker is one delta-served instance under coordinator management.
type testWorker struct {
	srv *server.Server
	ts  *httptest.Server
}

func newWorker(t *testing.T, cfg server.Config) *testWorker {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	return &testWorker{srv: srv, ts: ts}
}

func (w *testWorker) executed() uint64 {
	return w.srv.Telemetry().Snapshot().Counters["served.simulations.executed"]
}

// kill simulates abrupt worker loss: the listener dies, in-flight
// connections drop, and health probes start failing. The worker process
// object keeps running (its jobs are unreachable, not canceled), which is
// exactly what a network partition looks like to the coordinator.
func (w *testWorker) kill() {
	w.ts.CloseClientConnections()
	w.ts.Close()
}

func newCoord(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	// Fast fabric clocks so failure detection fits in test time.
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = 50 * time.Millisecond
	}
	if cfg.FailAfter == 0 {
		cfg.FailAfter = 2
	}
	if cfg.PollEvery == 0 {
		cfg.PollEvery = 20 * time.Millisecond
	}
	if cfg.SuspendTimeout == 0 {
		cfg.SuspendTimeout = 10 * time.Second
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
		ts.Close()
	})
	return c, ts
}

func quickReq(seed uint64) api.SubmitRequest {
	return api.SubmitRequest{
		Policy:             "snuca",
		Cores:              4,
		Apps:               []string{"mcf"},
		WarmupInstructions: 4_000,
		BudgetInstructions: 4_000,
		Seed:               seed,
	}
}

// mediumReq runs for a couple of seconds — long enough to still be in flight
// when the test kills or drains its worker.
func mediumReq(seed uint64) api.SubmitRequest {
	r := quickReq(seed)
	r.WarmupInstructions = 10_000
	r.BudgetInstructions = 600_000
	return r
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func coordWaitDone(t *testing.T, ts *httptest.Server, id string) api.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/simulations/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decode[api.Job](t, resp)
		if j.Status.Terminal() {
			return j
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return api.Job{}
}

func coordWaitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/simulations/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decode[api.Job](t, resp)
		if j.Status == api.StateRunning {
			return
		}
		if j.Status.Terminal() {
			t.Fatalf("job %s settled as %s before it could be interrupted", id, j.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// resultBytes canonicalizes a result for byte-identity comparison. The
// wall-clock elapsed_ms field is zeroed first: it measures the host, not the
// simulation, and is the one field determinism does not cover.
func resultBytes(t *testing.T, r *api.Result) []byte {
	t.Helper()
	if r == nil {
		t.Fatal("nil result")
	}
	clone := *r
	clone.ElapsedMS = 0
	b, err := json.Marshal(&clone)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// referenceResult runs a request to completion on a dedicated single worker —
// the uninterrupted baseline the fabric's reruns and resumptions must match
// byte for byte.
func referenceResult(t *testing.T, req api.SubmitRequest) []byte {
	t.Helper()
	w := newWorker(t, server.Config{Workers: 1, QueueDepth: 4})
	sub := decode[api.SubmitResponse](t, postJSON(t, w.ts.URL+"/v1/simulations", req))
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(w.ts.URL + "/v1/simulations/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		j := decode[api.Job](t, resp)
		if j.Status == api.StateDone {
			return resultBytes(t, j.Result)
		}
		if j.Status.Terminal() {
			t.Fatalf("reference job settled as %s (%s)", j.Status, j.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("reference job did not finish")
	return nil
}

// TestBatchDedupAcrossFleet: a batch with a duplicate costs one simulation
// for the pair — consistent-hash routing sends both copies to the same
// worker, whose single-flight cache collapses them.
func TestBatchDedupAcrossFleet(t *testing.T) {
	w1 := newWorker(t, server.Config{Workers: 2, QueueDepth: 16})
	w2 := newWorker(t, server.Config{Workers: 2, QueueDepth: 16})
	_, cts := newCoord(t, Config{Workers: []string{w1.ts.URL, w2.ts.URL}})

	breq := api.BatchRequest{Jobs: []api.SubmitRequest{quickReq(1), quickReq(2), quickReq(1)}}
	resp := postJSON(t, cts.URL+"/v1/batch", breq)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("batch content type %q", ct)
	}

	items := make(map[int]api.BatchItem)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var item api.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		items[item.Index] = item
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("got %d batch items, want 3: %+v", len(items), items)
	}
	for i := 0; i < 3; i++ {
		it, ok := items[i]
		if !ok || it.Status != api.StateDone || it.Result == nil {
			t.Fatalf("item %d: %+v", i, it)
		}
	}
	if items[0].ID != items[2].ID {
		t.Fatalf("duplicate jobs got distinct ids %s vs %s", items[0].ID, items[2].ID)
	}
	if !bytes.Equal(resultBytes(t, items[0].Result), resultBytes(t, items[2].Result)) {
		t.Fatal("duplicate jobs returned different results")
	}
	if got := w1.executed() + w2.executed(); got != 2 {
		t.Fatalf("fleet executed %d simulations for 3 jobs with 1 duplicate, want 2", got)
	}
}

// TestWorkerLossRebalance kills a job's worker mid-run and asserts a peer
// picks the job up and produces a result byte-identical to an uninterrupted
// run. Run with -race in CI.
func TestWorkerLossRebalance(t *testing.T) {
	req := mediumReq(7)
	want := referenceResult(t, req)

	w1 := newWorker(t, server.Config{Workers: 2, QueueDepth: 16})
	w2 := newWorker(t, server.Config{Workers: 2, QueueDepth: 16})
	byURL := map[string]*testWorker{w1.ts.URL: w1, w2.ts.URL: w2}
	coord, cts := newCoord(t, Config{Workers: []string{w1.ts.URL, w2.ts.URL}})

	sub := decode[api.SubmitResponse](t, postJSON(t, cts.URL+"/v1/simulations", req))
	if sub.ID == "" {
		t.Fatalf("submit response %+v", sub)
	}
	coordWaitRunning(t, cts, sub.ID)

	owner := coord.Owner(sub.ID)
	victim := byURL[owner]
	if victim == nil {
		t.Fatalf("job owner %q is not a fleet member", owner)
	}
	victim.kill()

	j := coordWaitDone(t, cts, sub.ID)
	if j.Status != api.StateDone {
		t.Fatalf("job settled as %s (%s)", j.Status, j.Error)
	}
	if !bytes.Equal(resultBytes(t, j.Result), want) {
		t.Fatalf("rebalanced result differs from uninterrupted run:\n got %s\nwant %s",
			resultBytes(t, j.Result), want)
	}
	if newOwner := coord.Owner(sub.ID); newOwner == owner {
		t.Fatalf("job still owned by the killed worker %s", owner)
	}
	snap := coord.Telemetry().Snapshot()
	if snap.Counters["coord.jobs.rebalanced"] == 0 {
		t.Fatal("no rebalance recorded")
	}
}

// TestGracefulRemovalHandsOffCheckpoint drains a worker out of the fleet
// while it runs a job: the coordinator suspends the job, carries its
// checkpoint to the surviving peer, and the resumption — which continues
// from the donor's exact quantum boundary rather than restarting — still
// produces the uninterrupted run's bytes.
func TestGracefulRemovalHandsOffCheckpoint(t *testing.T) {
	req := mediumReq(9)
	want := referenceResult(t, req)

	w1 := newWorker(t, server.Config{Workers: 2, QueueDepth: 16, CheckpointDir: t.TempDir()})
	w2 := newWorker(t, server.Config{Workers: 2, QueueDepth: 16, CheckpointDir: t.TempDir()})
	byURL := map[string]*testWorker{w1.ts.URL: w1, w2.ts.URL: w2}
	coord, cts := newCoord(t, Config{Workers: []string{w1.ts.URL, w2.ts.URL}})

	sub := decode[api.SubmitResponse](t, postJSON(t, cts.URL+"/v1/simulations", req))
	coordWaitRunning(t, cts, sub.ID)
	owner := coord.Owner(sub.ID)

	resp, err := http.NewRequest(http.MethodDelete, cts.URL+"/v1/fleet/workers?url="+owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(resp)
	if err != nil {
		t.Fatal(err)
	}
	fs := decode[api.FleetStatus](t, res)
	if len(fs.Workers) != 1 {
		t.Fatalf("fleet after removal has %d workers: %+v", len(fs.Workers), fs.Workers)
	}

	j := coordWaitDone(t, cts, sub.ID)
	if j.Status != api.StateDone {
		t.Fatalf("job settled as %s (%s)", j.Status, j.Error)
	}
	if !bytes.Equal(resultBytes(t, j.Result), want) {
		t.Fatalf("handed-off result differs from uninterrupted run:\n got %s\nwant %s",
			resultBytes(t, j.Result), want)
	}

	survivor := byURL[coord.Owner(sub.ID)]
	if survivor == nil || survivor.ts.URL == owner {
		t.Fatalf("job not migrated off %s", owner)
	}
	snap := coord.Telemetry().Snapshot()
	if snap.Counters["coord.handoff.checkpoints"] == 0 {
		t.Fatal("no checkpoint was handed off")
	}
	if n := snap.Counters["coord.jobs.resumed_in_place"]; n != 0 {
		t.Fatalf("the watcher resumed the job on the draining donor %d times", n)
	}
	if got := survivor.srv.Telemetry().Snapshot().Counters["served.checkpoints.received"]; got == 0 {
		t.Fatal("survivor never received the checkpoint")
	}
}

// TestCoordinatorRestartServesFromStore: completed results outlive the
// coordinator process — a restarted coordinator with zero workers still
// serves them by content address.
func TestCoordinatorRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	w := newWorker(t, server.Config{Workers: 1, QueueDepth: 4})

	c1, cts1 := newCoord(t, Config{Workers: []string{w.ts.URL}, ResultDir: dir})
	sub := decode[api.SubmitResponse](t, postJSON(t, cts1.URL+"/v1/simulations", quickReq(11)))
	first := coordWaitDone(t, cts1, sub.ID)
	if first.Status != api.StateDone {
		t.Fatalf("job settled as %s (%s)", first.Status, first.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = c1.Shutdown(ctx)
	cancel()
	cts1.Close()

	// A fresh coordinator over the same store, with an empty fleet: the
	// result must come back without any worker involved.
	_, cts2 := newCoord(t, Config{ResultDir: dir})
	resp := postJSON(t, cts2.URL+"/v1/simulations", quickReq(11))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200 (store hit)", resp.StatusCode)
	}
	again := decode[api.SubmitResponse](t, resp)
	if !again.Deduped || again.ID != sub.ID {
		t.Fatalf("resubmit %+v, want deduped id %s", again, sub.ID)
	}
	doc := decode[api.Job](t, get(t, cts2.URL+"/v1/simulations/"+sub.ID))
	if doc.Status != api.StateDone || doc.Result == nil {
		t.Fatalf("stored job %+v", doc)
	}
	if !bytes.Equal(resultBytes(t, doc.Result), resultBytes(t, first.Result)) {
		t.Fatal("stored result differs from the original run")
	}
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBatchTooLarge: the batch cap is enforced up front with a structured
// error, before any job is admitted.
func TestBatchTooLarge(t *testing.T) {
	w := newWorker(t, server.Config{Workers: 1, QueueDepth: 4})
	_, cts := newCoord(t, Config{Workers: []string{w.ts.URL}, MaxBatch: 2})
	breq := api.BatchRequest{Jobs: []api.SubmitRequest{quickReq(1), quickReq(2), quickReq(3)}}
	resp := postJSON(t, cts.URL+"/v1/batch", breq)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	body := decode[api.ErrorBody](t, resp)
	if body.Error.Code != "batch_too_large" {
		t.Fatalf("error code %q", body.Error.Code)
	}
	if got := w.executed(); got != 0 {
		t.Fatalf("worker executed %d simulations for a rejected batch", got)
	}
}

// TestNoWorkers: a coordinator with an empty fleet and no stored result
// rejects submissions with a structured no_workers error.
func TestNoWorkers(t *testing.T) {
	_, cts := newCoord(t, Config{})
	resp := postJSON(t, cts.URL+"/v1/simulations", quickReq(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	body := decode[api.ErrorBody](t, resp)
	if body.Error.Code != "no_workers" {
		t.Fatalf("error code %q", body.Error.Code)
	}
}

// TestBatchReusesWorkerConnections: every in-flight job has a watcher
// polling its worker, and the polls ride kept-alive connections, so a batch
// opens about one connection per job in flight rather than one per poll.
// With the default transport's two idle connections per host, nearly every
// poll dialed anew (a 32-job batch opened hundreds).
func TestBatchReusesWorkerConnections(t *testing.T) {
	const jobs = 32
	srv := server.New(server.Config{Workers: 2, QueueDepth: jobs})
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	_, cts := newCoord(t, Config{Workers: []string{ts.URL}})

	var breq api.BatchRequest
	for i := 0; i < jobs; i++ {
		// Long enough for every watcher to poll many times.
		r := quickReq(uint64(i + 1))
		r.WarmupInstructions, r.BudgetInstructions = 20_000, 20_000
		breq.Jobs = append(breq.Jobs, r)
	}
	resp := postJSON(t, cts.URL+"/v1/batch", breq)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	done := 0
	for sc.Scan() {
		var item api.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if item.Status != api.StateDone {
			t.Fatalf("item %d settled as %s (%s)", item.Index, item.Status, item.Error)
		}
		done++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done != jobs {
		t.Fatalf("got %d batch items, want %d", done, jobs)
	}
	// One connection per job in flight, plus a few for the health probe
	// and dials that raced a connection being returned.
	n := opened.Load()
	t.Logf("%d connections for %d jobs", n, jobs)
	if n > jobs+8 {
		t.Fatalf("coordinator opened %d connections to its worker for a %d-job batch, want at most %d", n, jobs, jobs+8)
	}
}

// statusLog records when a worker received each job's status requests.
type statusLog struct {
	mu sync.Mutex
	at map[string][]time.Time
}

func (l *statusLog) jobs() map[string][]time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return maps.Clone(l.at)
}

// newLoggedWorker starts a 2-slot worker behind a handler that logs every
// GET /v1/simulations/{id}. With ignoreWait it also strips the query, so
// the worker answers every status request at once, as one that predates
// long-polls would.
func newLoggedWorker(t *testing.T, ignoreWait bool) (*httptest.Server, *statusLog) {
	t.Helper()
	srv := server.New(server.Config{Workers: 2, QueueDepth: 64})
	h := srv.Handler()
	log := &statusLog{at: make(map[string][]time.Time)}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, ok := strings.CutPrefix(r.URL.Path, "/v1/simulations/"); ok && r.Method == http.MethodGet {
			log.mu.Lock()
			log.at[id] = append(log.at[id], time.Now())
			log.mu.Unlock()
			if ignoreWait {
				r = r.Clone(r.Context())
				r.URL.RawQuery = ""
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	return ts, log
}

// runBatch posts a batch to the coordinator and requires every job done.
func runBatch(t *testing.T, cts *httptest.Server, reqs []api.SubmitRequest) {
	t.Helper()
	resp := postJSON(t, cts.URL+"/v1/batch", api.BatchRequest{Jobs: reqs})
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	done := 0
	for sc.Scan() {
		var item api.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if item.Status != api.StateDone {
			t.Fatalf("item %d settled as %s (%s)", item.Index, item.Status, item.Error)
		}
		done++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done != len(reqs) {
		t.Fatalf("got %d batch items, want %d", done, len(reqs))
	}
}

// TestBatchLongPollsStatus: each watcher long-polls its worker, so a 32-job
// batch costs a handful of status requests per job, not one per PollEvery
// (dozens per job when every watcher polled every 20ms).
func TestBatchLongPollsStatus(t *testing.T) {
	const jobs = 32
	wts, log := newLoggedWorker(t, false)
	coord, cts := newCoord(t, Config{Workers: []string{wts.URL}, HealthEvery: 10 * time.Second})
	var reqs []api.SubmitRequest
	for i := 0; i < jobs; i++ {
		r := quickReq(uint64(i + 1))
		r.WarmupInstructions, r.BudgetInstructions = 20_000, 20_000
		reqs = append(reqs, r)
	}
	runBatch(t, cts, reqs)

	seen := log.jobs()
	if len(seen) != jobs {
		t.Fatalf("worker saw status requests for %d jobs, want %d", len(seen), jobs)
	}
	for id, at := range seen {
		if len(at) > 3 {
			t.Fatalf("job %s cost %d status requests, want at most 3", id, len(at))
		}
	}
	if got := coord.Telemetry().Counter("coord.status.requests"); got == 0 || got > 3*jobs {
		t.Fatalf("coord.status.requests = %d, want 1..%d", got, 3*jobs)
	}
}

// TestStatusPollFloorWithoutLongPoll: against a worker that ignores ?wait=,
// the watchers fall back to PollEvery as the floor between two requests for
// one job rather than spinning.
func TestStatusPollFloorWithoutLongPoll(t *testing.T) {
	const pollEvery = 100 * time.Millisecond
	wts, log := newLoggedWorker(t, true)
	_, cts := newCoord(t, Config{Workers: []string{wts.URL}, HealthEvery: 10 * time.Second, PollEvery: pollEvery})
	var reqs []api.SubmitRequest
	for i := 0; i < 4; i++ {
		r := quickReq(uint64(i + 1))
		r.BudgetInstructions = 200_000
		reqs = append(reqs, r)
	}
	runBatch(t, cts, reqs)

	polled := false
	for id, at := range log.jobs() {
		span := at[len(at)-1].Sub(at[0])
		if limit := int(span/pollEvery) + 2; len(at) > limit {
			t.Fatalf("job %s: %d status requests in %v, want at most %d at one per %v",
				id, len(at), span, limit, pollEvery)
		}
		polled = polled || len(at) > 2
	}
	if !polled {
		t.Fatal("no job lived long enough to be polled more than twice")
	}
}

// TestCoordinatorGetWait: the coordinator's job document long-polls too, and
// a malformed wait is a structured 400.
func TestCoordinatorGetWait(t *testing.T) {
	w := newWorker(t, server.Config{Workers: 1, QueueDepth: 4})
	_, cts := newCoord(t, Config{Workers: []string{w.ts.URL}})
	sub := decode[api.SubmitResponse](t, postJSON(t, cts.URL+"/v1/simulations", quickReq(3)))
	j := decode[api.Job](t, get(t, cts.URL+"/v1/simulations/"+sub.ID+"?wait=1m"))
	if j.Status != api.StateDone || j.Result == nil {
		t.Fatalf("long-poll answered %+v, want the done document", j)
	}
	resp := get(t, cts.URL+"/v1/simulations/"+sub.ID+"?wait=later")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait: status %d, want 400", resp.StatusCode)
	}
	if body := decode[api.ErrorBody](t, resp); body.Error.Code != "invalid_wait" {
		t.Fatalf("bad wait: error code %q", body.Error.Code)
	}
}
