package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"delta"
	"delta/internal/server/api"
)

// TestRecycledJobsMatchDirectRuns: ten jobs of different policies, core
// counts and seeds drain through two slots, each job closing its simulator
// so the next draws its arrays. Every result equals a direct facade run
// of the same request on freshly allocated arrays. Run with -race in CI.
func TestRecycledJobsMatchDirectRuns(t *testing.T) {
	policies := []string{"snuca", "private", "delta", "ideal", "lfoc", "carma", "bankbw", "delta", "ideal", "snuca"}
	var reqs []api.SubmitRequest
	for i, p := range policies {
		r := quickReq(uint64(i + 1))
		r.Policy = p
		if i%2 == 0 {
			r.Cores, r.Apps, r.Mix = 16, nil, fmt.Sprintf("w%d", i+1)
			r.WarmupInstructions, r.BudgetInstructions = 5_000, 5_000
		}
		reqs = append(reqs, r)
	}
	// Two collections empty the slab free list, so the direct runs, which
	// never close their simulators, allocate every array fresh.
	runtime.GC()
	runtime.GC()
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		norm, err := normalize(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = directResult(t, norm)
	}

	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: len(reqs)})
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		resp := postJSON(t, ts.URL+"/v1/simulations", r)
		if resp.StatusCode != 202 {
			t.Fatalf("job %d: submit status %d", i, resp.StatusCode)
		}
		ids[i] = decode[api.SubmitResponse](t, resp).ID
	}
	for i, id := range ids {
		j := waitDone(t, ts, id)
		if j.Status != api.StateDone || j.Result == nil {
			t.Fatalf("job %d (%s) settled as %s: %s", i, policies[i], j.Status, j.Error)
		}
		if got := canonicalResult(t, j.Result); !bytes.Equal(got, want[i]) {
			t.Fatalf("job %d (%s): served result differs from a direct run\n got %s\nwant %s", i, policies[i], got, want[i])
		}
	}
}

// directResult runs a normalized request straight through the facade,
// never closing the simulator, and returns its canonical wire result.
func directResult(t *testing.T, req api.SubmitRequest) []byte {
	t.Helper()
	sim, err := delta.New(delta.WithConfig(config(req)))
	if err != nil {
		t.Fatal(err)
	}
	if err := loadWorkloads(sim, req); err != nil {
		t.Fatal(err)
	}
	return canonicalResult(t, toAPIResult(sim.Run(), false, 0))
}

// canonicalResult encodes a result with the host-dependent elapsed time
// zeroed.
func canonicalResult(t *testing.T, r *api.Result) []byte {
	t.Helper()
	clone := *r
	clone.ElapsedMS = 0
	b, err := json.Marshal(&clone)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
