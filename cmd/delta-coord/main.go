// Command delta-coord runs the campaign fabric coordinator: an HTTP frontend
// that routes content-addressed simulation jobs across a fleet of
// delta-served workers with consistent hashing (same request → same worker,
// so per-worker single-flight deduplication holds fleet-wide), persists
// completed results in a disk-backed content-addressed store that survives
// restarts, and rebalances in-flight jobs when workers leave — gracefully via
// checkpoint handoff, or from scratch on worker loss (determinism makes the
// rerun byte-identical).
//
// API (JSON unless noted):
//
//	POST   /v1/simulations        submit one job (routed, deduplicated)
//	GET    /v1/simulations/{id}   job status and result; ?wait=10s long-polls
//	                              until the job settles
//	POST   /v1/batch              submit N jobs, stream N NDJSON results in
//	                              completion order
//	GET    /v1/fleet              worker states and job placement
//	POST   /v1/fleet/workers      register a worker {url}
//	DELETE /v1/fleet/workers?url= drain a worker out (checkpoint handoff)
//	GET    /healthz               liveness + version
//	GET    /readyz                503 until at least one worker is healthy
//	GET    /metrics               Prometheus text exposition
//
// Example:
//
//	delta-coord -addr :9090 -fleet http://localhost:8081,http://localhost:8082
//	curl -s localhost:9090/v1/batch -d '{"jobs":[{"mix":"w2","budget_instructions":20000}]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"delta/internal/fabric"
	"delta/internal/version"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	fleet := flag.String("fleet", "", "comma-separated delta-served worker base URLs (more can join at runtime)")
	resultDir := flag.String("result-dir", "", "persist completed results to a content-addressed store here; duplicate submissions dedupe against it across coordinator restarts")
	healthEvery := flag.Duration("health-every", 2*time.Second, "worker health-probe interval")
	failAfter := flag.Int("health-fail-after", 3, "consecutive probe failures before a worker is marked down and its jobs rebalance")
	pollEvery := flag.Duration("poll-every", 50*time.Millisecond, "minimum interval between two status requests for one job; each request long-polls the worker for up to -health-every")
	suspendTimeout := flag.Duration("suspend-timeout", 30*time.Second, "max wait for a draining worker to checkpoint a job before restarting it fresh")
	maxBatch := flag.Int("max-batch", 1024, "max jobs per POST /v1/batch")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("delta-coord", version.String())
		return
	}

	var workers []string
	for _, u := range strings.Split(*fleet, ",") {
		if u = strings.TrimSpace(u); u != "" {
			workers = append(workers, u)
		}
	}
	log.Printf("delta-coord %s starting on %s (%d workers)",
		version.String(), *addr, len(workers))

	coord, err := fabric.New(fabric.Config{
		Workers:        workers,
		ResultDir:      *resultDir,
		HealthEvery:    *healthEvery,
		FailAfter:      *failAfter,
		PollEvery:      *pollEvery,
		SuspendTimeout: *suspendTimeout,
		MaxBatch:       *maxBatch,
		Version:        version.String(),
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatalf("delta-coord: %v", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: coord.Handler()}

	errCh := make(chan error, 1)
	go func() {
		err := httpSrv.ListenAndServe()
		if !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatalf("delta-coord: %v", err)
	case sig := <-sigCh:
		log.Printf("delta-coord: %v received, shutting down", sig)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Shutdown(shutCtx); err != nil {
		log.Printf("delta-coord: shutdown incomplete: %v", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		log.Printf("delta-coord: http shutdown: %v", err)
	}
	log.Printf("delta-coord: exit")
}
