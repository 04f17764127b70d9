package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"delta"
	"delta/internal/server/api"
)

// TestGetWaitLongPolls: GET ?wait= answers when the job settles, not at
// once and not when the wait runs out; a short wait on a running job answers
// with the running document; a request without wait is unchanged.
func TestGetWaitLongPolls(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	sub := decode[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/simulations", mediumReq(1)))
	waitState(t, ts, sub.ID, api.StateRunning)

	start := time.Now()
	j := decode[api.Job](t, get(t, ts.URL+"/v1/simulations/"+sub.ID+"?wait=200ms"))
	if j.Status != api.StateRunning {
		t.Fatalf("short wait on a running job answered %s", j.Status)
	}
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Fatalf("wait=200ms answered after %v, before the wait ran out", el)
	}

	j = decode[api.Job](t, get(t, ts.URL+"/v1/simulations/"+sub.ID+"?wait=1h"))
	if j.Status != api.StateDone || j.Result == nil {
		t.Fatalf("long-poll answered %+v, want the done document", j)
	}
	// A settled job answers at once, with or without a wait.
	start = time.Now()
	again := decode[api.Job](t, get(t, ts.URL+"/v1/simulations/"+sub.ID+"?wait=30s"))
	plain := decode[api.Job](t, get(t, ts.URL+"/v1/simulations/"+sub.ID))
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("long-poll on a settled job took %v", el)
	}
	if again.Status != api.StateDone || plain.Status != api.StateDone {
		t.Fatalf("settled job read %s / %s", again.Status, plain.Status)
	}
}

// TestGetWaitInvalid: a malformed or negative wait is a structured 400.
func TestGetWaitInvalid(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	sub := decode[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/simulations", quickReq(1)))
	for _, v := range []string{"soon", "-1s", "10"} {
		resp := get(t, ts.URL+"/v1/simulations/"+sub.ID+"?wait="+v)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wait=%s: status %d, want 400", v, resp.StatusCode)
		}
		if body := decode[api.ErrorBody](t, resp); body.Error.Code != "invalid_wait" {
			t.Fatalf("wait=%s: error code %q", v, body.Error.Code)
		}
	}
}

// TestShutdownEndsLongPoll: a client long-polling a queued job holds neither
// Shutdown nor the listener's Close.
func TestShutdownEndsLongPoll(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := newHTTPTest(srv)
	defer ts.Close()
	running := decode[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/simulations", slowReq(1)))
	waitStatus(t, ts, running.ID, api.StateRunning)
	queued := decode[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/simulations", slowReq(2)))

	polled := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/simulations/" + queued.ID + "?wait=30s")
		if err == nil {
			resp.Body.Close()
		}
		polled <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the long-poll reach the handler

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_ = srv.Shutdown(ctx) // the slow jobs outlive ctx and are canceled
	ts.Close()
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Shutdown and Close took %v with a long-poll open", el)
	}
	select {
	case <-polled:
	case <-time.After(time.Second):
		t.Fatal("the long-poll outlived the server")
	}
}

// TestPanickingJobFailsAlone: a panic inside a job's run fails that job with
// the panic in its error, logs the stack and counts served.jobs.panicked;
// the chip is not recycled, and the worker goes on to run the next job.
func TestPanickingJobFailsAlone(t *testing.T) {
	var calls atomic.Int32
	var abandoned atomic.Pointer[delta.Simulator]
	runSim = func(sim *delta.Simulator, ctx context.Context) (delta.Result, error) {
		if calls.Add(1) == 1 {
			abandoned.Store(sim)
			panic("injected fault")
		}
		return sim.RunCtx(ctx)
	}
	t.Cleanup(func() { runSim = (*delta.Simulator).RunCtx })
	var logMu sync.Mutex
	var logs strings.Builder
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logs, format+"\n", args...)
	}
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Logf: logf})

	bad := decode[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/simulations", quickReq(1)))
	j := waitDone(t, ts, bad.ID)
	if j.Status != api.StateFailed || !strings.Contains(j.Error, "injected fault") {
		t.Fatalf("panicked job settled as %s (%q)", j.Status, j.Error)
	}
	if got := srv.Telemetry().Counter("served.jobs.panicked"); got != 1 {
		t.Fatalf("served.jobs.panicked = %d, want 1", got)
	}
	logMu.Lock()
	logged := logs.String()
	logMu.Unlock()
	if !strings.Contains(logged, "injected fault") || !strings.Contains(logged, "runJob") {
		t.Fatalf("log lacks the panic and its stack:\n%s", logged)
	}
	// Close would make every later call panic; the abandoned chip must
	// still answer.
	_ = abandoned.Load().Fingerprint()

	good := decode[api.SubmitResponse](t, postJSON(t, ts.URL+"/v1/simulations", quickReq(2)))
	if j := waitDone(t, ts, good.ID); j.Status != api.StateDone {
		t.Fatalf("next job settled as %s (%q)", j.Status, j.Error)
	}
}
