package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"delta/internal/server"
	"delta/internal/server/api"
)

// TestRunLongPolls: Run's status requests carry ?wait=, so a job that runs
// for a while costs a few requests even with a 1ms poll floor.
func TestRunLongPolls(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, QueueDepth: 4})
	h := srv.Handler()
	var mu sync.Mutex
	var waits []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			mu.Lock()
			waits = append(waits, r.URL.Query().Get("wait"))
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	req := api.SubmitRequest{Policy: "snuca", Cores: 4, Apps: []string{"mcf"},
		WarmupInstructions: 10_000, BudgetInstructions: 300_000}
	job, err := New(ts.URL).Run(context.Background(), req, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != api.StateDone || job.Result == nil {
		t.Fatalf("job %+v", job)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(waits) == 0 || len(waits) > 3 {
		t.Fatalf("Run sent %d status requests, want 1..3", len(waits))
	}
	for _, v := range waits {
		if v == "" {
			t.Fatal("a status request carried no wait")
		}
	}
}

// TestWaitFloorWithoutLongPoll: against a server that answers at once, the
// poll argument is the floor between two status requests.
func TestWaitFloorWithoutLongPoll(t *testing.T) {
	const poll = 20 * time.Millisecond
	var mu sync.Mutex
	var gets int
	start := time.Now()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gets++
		status := api.StateRunning
		if time.Since(start) > 300*time.Millisecond {
			status = api.StateDone
		}
		mu.Unlock()
		json.NewEncoder(w).Encode(api.Job{SchemaVersion: api.SchemaVersion, ID: "j", Status: status})
	}))
	defer ts.Close()
	if _, err := New(ts.URL).Wait(context.Background(), "j", poll); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if limit := int(time.Since(start)/poll) + 2; gets > limit {
		t.Fatalf("%d status requests in %v, want at most %d at one per %v", gets, time.Since(start), limit, poll)
	}
}
