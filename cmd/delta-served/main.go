// Command delta-served runs the simulation service: a long-lived HTTP
// frontend that accepts simulation requests, deduplicates identical
// submissions single-flight against a content-addressed result cache, fans
// accepted jobs across a worker pool behind a bounded queue (full queue ⇒
// 429 + Retry-After), and drains gracefully on SIGTERM/SIGINT.
//
// API (JSON unless noted):
//
//	POST /v1/simulations              submit {policy, cores, mix|apps, ...}
//	POST /v1/simulations/{id}:suspend checkpoint a job for later resumption
//	GET  /v1/simulations/{id}         job status and result; ?wait=10s
//	                                  long-polls until the job settles
//	GET  /v1/simulations/{id}/events  JSONL progress stream
//	GET  /v1/simulations/{id}/telemetry  NDJSON range query over the columnar
//	                                  time series (from/to/res/tags); needs
//	                                  -telemetry-dir, survives restarts
//	GET  /healthz                     liveness + version
//	GET  /readyz                      admission state (503 while draining)
//	GET  /metrics                     Prometheus text exposition
//
// Example:
//
//	delta-served -addr :8080 -workers 4 -queue-depth 64 -job-timeout 2m
//	curl -s localhost:8080/v1/simulations -d '{"mix":"w2","budget_instructions":20000}'
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
	"runtime"
	"syscall"
	"time"

	"delta/internal/server"
	"delta/internal/telemetry"
	"delta/internal/version"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "simulation worker pool size")
	queueDepth := flag.Int("queue-depth", 64, "max accepted jobs waiting for a worker (full = 429)")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job deadline (0 = none); expired jobs report partial results")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain accepted jobs on shutdown before canceling them")
	jsonl := flag.String("jsonl", "", "append every simulation's telemetry to this JSONL file (flushed on shutdown)")
	checkpointDir := flag.String("checkpoint-dir", "", "persist suspended jobs' simulation snapshots here; enables :suspend, resume-on-resubmit, and checkpoint-instead-of-discard drains")
	resultDir := flag.String("result-dir", "", "persist completed results to a content-addressed store here; resubmissions dedupe against it across restarts")
	telemetryDir := flag.String("telemetry-dir", "", "stream each job's samples into columnar segments under this directory (one subdirectory per job) and serve range queries at /v1/simulations/{id}/telemetry")
	telemetryRetain := flag.Int64("telemetry-retain-bytes", 0, "per-job cap on columnar segment bytes; oldest segments deleted first (0 = unlimited)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("delta-served", version.String())
		return
	}
	log.Printf("delta-served %s starting on %s (workers=%d queue-depth=%d job-timeout=%s)",
		version.String(), *addr, *workers, *queueDepth, *jobTimeout)

	var sink telemetry.Recorder
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			log.Fatalf("delta-served: %v", err)
		}
		defer f.Close()
		sink = telemetry.NewJSONL(f)
	}

	srv := server.New(server.Config{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		JobTimeout:    *jobTimeout,
		CheckpointDir: *checkpointDir,
		ResultDir:     *resultDir,
		Version:       version.String(),
		Sink:          sink,
		Logf:          log.Printf,

		TelemetryDir:         *telemetryDir,
		TelemetryRetainBytes: *telemetryRetain,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

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
		log.Fatalf("delta-served: %v", err)
	case sig := <-sigCh:
		log.Printf("delta-served: %v received, draining accepted jobs", sig)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("delta-served: drain incomplete: %v", err)
	}
	// Close listeners only after the jobs drained, so pollers can collect
	// results until the end.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		log.Printf("delta-served: http shutdown: %v", err)
	}
	log.Printf("delta-served: exit")
}
