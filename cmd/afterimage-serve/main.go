// Command afterimage-serve runs the campaign service: an HTTP front door
// over the deterministic simulator with a persistent content-addressed
// result cache, single-flight deduplication, per-tenant admission control
// with load shedding, SSE progress streaming, and crash-safe
// checkpoint/resume.
//
//	afterimage-serve -addr :8080 -store /var/lib/afterimage/store \
//	    -checkpoints /var/lib/afterimage/checkpoints
//
// Submit a campaign:
//
//	curl -s localhost:8080/v1/campaigns -d \
//	    '{"tenant":"alice","attack":"v1-thread","bits":12,"intensities":[0,1],"seed":5}'
//
// Resubmitting the same spec is a cache hit (X-Afterimage-Cache: hit) with
// byte-identical body. SIGTERM drains gracefully: in-flight campaigns are
// checkpointed and a restarted server resumes them on their next request.
//
// Observability: -log-format/-log-level control structured stderr logging
// through log/slog (every campaign line carries its correlation ID),
// -span-log appends one JSONL span record per completed campaign (validate
// with afterimage-tracecheck -format spans), -pprof serves net/http/pprof,
// and GET /metrics serves Prometheus 0.0.4 text exposition.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"afterimage/internal/cliobs"
	"afterimage/internal/cluster"
	"afterimage/internal/server"
	"afterimage/internal/store"
	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		storeDir      = flag.String("store", "afterimage-store", "content-addressed result store directory (persists across restarts)")
		ckptDir       = flag.String("checkpoints", "afterimage-checkpoints", "per-campaign runner checkpoint directory (persists across restarts)")
		maxCampaigns  = flag.Int("max-campaigns", 4, "campaigns executing concurrently")
		queueDepth    = flag.Int("queue", 8, "campaigns waiting for a slot before the server sheds with 429 + Retry-After")
		tenantQuota   = flag.Int("tenant-quota", 2, "per-tenant concurrent-campaign quota (excess is an immediate 429)")
		pointWorkers  = flag.Int("point-workers", 1, "runner workers inside each campaign (results identical for any value)")
		defaultTimout = flag.Duration("campaign-timeout", 0, "default per-campaign wall deadline when the spec sets none (0 = none); expiry checkpoints and returns 504")
		retryAfter    = flag.Duration("retry-after", 2*time.Second, "Retry-After hint on 429/503 responses")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight campaigns to checkpoint and unwind")
		spanLogPath   = flag.String("span-log", "", "append one JSONL span record per completed campaign to this file (validate with afterimage-tracecheck -format spans)")

		storeBudget   = flag.Int64("store-budget", 0, "store size budget in bytes (0 = unlimited); past it the oldest entries are evicted first, never pinned (in-flight) keys")
		scrubInterval = flag.Duration("store-scrub-interval", 0, "background store integrity-scrub cadence (0 = off; POST /v1/store/scrub always works on demand)")
		scrubRate     = flag.Int("store-scrub-rate", 0, "scrubber rate limit in entry verifications per second (0 = unlimited)")
		fsChaos       = flag.String("fs-chaos", "", `inject deterministic filesystem faults into store and checkpoint writes (chaos testing): "seed=N,enospc=R,eio=R,torn=R,rename=R" with rates in [0,1]`)

		clusterOn        = flag.Bool("cluster", false, "shard campaign execution across registered afterimage-worker nodes (degrading to local execution when none are healthy)")
		heartbeatEvery   = flag.Duration("cluster-heartbeat", 250*time.Millisecond, "worker heartbeat probe interval")
		evictAfter       = flag.Duration("cluster-evict-after", time.Second, "evict a worker unseen for this long (it rejoins by re-registering)")
		breakerThreshold = flag.Int("cluster-breaker-threshold", 3, "consecutive dispatch failures that open a worker's circuit breaker")
		breakerCooldown  = flag.Duration("cluster-breaker-cooldown", 2*time.Second, "how long an open breaker holds before the half-open probe")
		dispatchRounds   = flag.Int("cluster-dispatch-rounds", 3, "workers one campaign tries before degrading to local execution")
		dispatchTimeout  = flag.Duration("cluster-dispatch-timeout", 0, "per-attempt deadline against one worker (0 = bounded only by the campaign context); keeps a hung or partitioned worker from stalling a campaign")
		hedgeAfter       = flag.Duration("cluster-hedge-after", 0, "fixed straggler-hedging delay (0 = adaptive: p95 of recent dispatch latencies)")
	)
	obs := cliobs.Register()
	flag.Parse()
	obs.Start() // -pprof

	log, err := obs.Logger()
	if err != nil {
		fmt.Fprintf(os.Stderr, "afterimage-serve: %v\n", err)
		os.Exit(2)
	}
	log = log.With("component", "afterimage-serve")

	var spanLog *os.File
	if *spanLogPath != "" {
		spanLog, err = os.OpenFile(*spanLogPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			log.Error("open span log", "path", *spanLogPath, "err", err)
			os.Exit(1)
		}
		defer spanLog.Close()
	}

	reg := telemetry.NewRegistry()

	// Optional deterministic disk-fault injection: one FaultFS shared by the
	// store and the checkpoint writer, so a chaos run exercises every
	// degradation path the service has.
	var fsys vfs.FS
	if *fsChaos != "" {
		fcfg, err := vfs.ParseFaultConfig(*fsChaos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "afterimage-serve: -fs-chaos: %v\n", err)
			os.Exit(2)
		}
		fcfg.Registry = reg
		fsys = vfs.NewFaultFS(fcfg, nil)
		log.Warn("filesystem fault injection enabled", "config", *fsChaos)
	}

	st, quarantined, err := store.OpenWith(store.Options{
		Dir:           *storeDir,
		Registry:      reg,
		FS:            fsys,
		Budget:        *storeBudget,
		ScrubInterval: *scrubInterval,
		ScrubRate:     *scrubRate,
		Logger:        log,
	})
	if err != nil {
		log.Error("open store", "dir", *storeDir, "err", err)
		os.Exit(1)
	}
	defer st.Close()
	if quarantined > 0 {
		log.Warn("recovery scan quarantined torn/corrupt store files",
			"count", quarantined, "dir", store.QuarantineDir)
	}
	log.Info("store opened", "dir", st.Dir(), "entries", st.Len(),
		"budget", *storeBudget, "scrub_interval", *scrubInterval)

	cfg := server.Config{
		Store:          st,
		FS:             fsys,
		CheckpointDir:  *ckptDir,
		Registry:       reg,
		MaxConcurrent:  *maxCampaigns,
		QueueDepth:     *queueDepth,
		TenantQuota:    *tenantQuota,
		PointWorkers:   *pointWorkers,
		DefaultTimeout: *defaultTimout,
		RetryAfter:     *retryAfter,
		Logger:         log,
	}
	if spanLog != nil {
		cfg.SpanLog = spanLog
	}
	var coord *cluster.Coordinator
	if *clusterOn {
		coord = cluster.New(cluster.Config{
			HeartbeatInterval: *heartbeatEvery,
			EvictAfter:        *evictAfter,
			BreakerThreshold:  *breakerThreshold,
			BreakerCooldown:   *breakerCooldown,
			DispatchRounds:    *dispatchRounds,
			DispatchTimeout:   *dispatchTimeout,
			HedgeAfter:        *hedgeAfter,
			Registry:          reg,
			Logger:            log,
		})
		cfg.Cluster = coord
		log.Info("cluster mode: workers register at /v1/cluster/register")
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Error("server init failed", "err", err)
		os.Exit(1)
	}
	if coord != nil {
		coord.Start()
		defer coord.Stop()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("listener failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
	}

	// Graceful drain: refuse new executions, cancel in-flight campaigns at
	// their next point boundary (the runner writes each completed point to
	// the checkpoint before it returns), wait for them to unwind, then
	// close the listener. A restart resumes every interrupted campaign from
	// its checkpoint.
	log.Info("draining: in-flight campaigns checkpoint and stop")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Warn("drain", "err", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Error("shutdown", "err", err)
		os.Exit(1)
	}
	log.Info("drained cleanly")
}
