// Command afterimage-worker runs one lab-pool execution node. It serves the
// cluster wire protocol (POST /v1/execute, GET /healthz, GET /metrics) and
// self-registers with an afterimage-serve coordinator on a timer, so a
// worker that restarts — or that the coordinator evicted while it was down —
// rejoins the pool within one registration interval.
//
//	afterimage-worker -addr 127.0.0.1:9001 -id w1 \
//	    -coordinator http://127.0.0.1:8080 -checkpoints worker1-checkpoints
//
// Campaigns are pure functions of their specs, so the bytes this worker
// returns are identical to any sibling's (or the coordinator's own local
// run). Jobs checkpoint per completed point: a SIGKILLed worker restarted
// over the same -checkpoints directory resumes interrupted campaigns instead
// of re-simulating them. SIGTERM drains gracefully (healthz goes 503, the
// coordinator's heartbeats pull the worker from rotation, in-flight jobs
// finish or checkpoint).
//
// Chaos testing: -chaos makes SIGUSR1 toggle a simulated network partition —
// the worker keeps running but every handler stalls until the partition is
// lifted or the request context dies, which is how a netsplit looks from the
// coordinator's side. The cluster soak uses this to prove byte-identity
// under mid-campaign partitions.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"afterimage/internal/cliobs"
	"afterimage/internal/cluster"
	"afterimage/internal/server"
	"afterimage/internal/telemetry"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:9001", "listen address (host:port; also the advertised address unless -advertise is set)")
		advertise     = flag.String("advertise", "", "base URL the coordinator should dial (default http://<addr>)")
		id            = flag.String("id", "", "worker id (required; 1..64 chars of [a-zA-Z0-9_-])")
		coordinator   = flag.String("coordinator", "", "coordinator base URL to self-register with, e.g. http://127.0.0.1:8080 (empty = no registration; register manually)")
		ckptDir       = flag.String("checkpoints", "afterimage-worker-checkpoints", "per-campaign runner checkpoint directory (persists across restarts for crash resume)")
		maxConcurrent = flag.Int("max-concurrent", 2, "jobs executing concurrently; excess is shed with 503 so the coordinator fails over")
		pointWorkers  = flag.Int("point-workers", 1, "runner workers inside each campaign (results identical for any value)")
		registerEvery = flag.Duration("register-every", time.Second, "re-registration interval (also the eviction revival latency)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs to finish or checkpoint")
		chaos         = flag.Bool("chaos", false, "SIGUSR1 toggles a simulated network partition (handlers stall until healed); for the cluster chaos harness")
	)
	obs := cliobs.Register()
	flag.Parse()
	obs.Start() // -pprof

	log, err := obs.Logger()
	if err != nil {
		fmt.Fprintf(os.Stderr, "afterimage-worker: %v\n", err)
		os.Exit(2)
	}
	log = log.With("component", "afterimage-worker", "worker", *id)

	reg := telemetry.NewRegistry()
	w, err := server.NewWorker(server.WorkerConfig{
		ID:            *id,
		CheckpointDir: *ckptDir,
		MaxConcurrent: *maxConcurrent,
		PointWorkers:  *pointWorkers,
		Registry:      reg,
		Logger:        log,
	})
	if err != nil {
		log.Error("worker init failed", "err", err)
		os.Exit(1)
	}

	handler := w.Handler()
	var partitioned atomic.Bool
	if *chaos {
		handler = partitionMiddleware(handler, &partitioned)
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		go func() {
			for range usr1 {
				now := !partitioned.Load()
				partitioned.Store(now)
				log.Warn("chaos partition toggled", "partitioned", now)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		log.Info("worker listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *coordinator != "" {
		self := *advertise
		if self == "" {
			self = "http://" + *addr
		}
		go server.RegisterLoop(ctx, nil, *coordinator,
			cluster.RegisterRequest{ID: *id, Addr: self}, *registerEvery, log)
	}

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("listener failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
	}

	// Graceful drain: healthz goes 503 (the coordinator's next heartbeat
	// pulls this worker from rotation), new jobs are shed, in-flight jobs
	// finish or checkpoint, then the listener closes. A restart resumes
	// interrupted campaigns from -checkpoints.
	log.Info("draining: in-flight jobs finish or checkpoint")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := w.Drain(drainCtx); err != nil {
		log.Warn("drain", "err", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Error("shutdown", "err", err)
		os.Exit(1)
	}
	log.Info("drained cleanly")
}

// partitionMiddleware simulates a netsplit: while partitioned, every request
// stalls until the partition heals or the caller's context dies — exactly how
// an unreachable peer looks to the coordinator (probe timeouts, hung
// dispatches), as opposed to a crash's immediate connection refusal.
func partitionMiddleware(next http.Handler, partitioned *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for partitioned.Load() {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(25 * time.Millisecond):
			}
		}
		next.ServeHTTP(w, r)
	})
}
