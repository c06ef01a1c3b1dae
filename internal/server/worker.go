package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"afterimage/internal/cluster"
	"afterimage/internal/obslog"
	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

// WorkerConfig assembles a Worker.
type WorkerConfig struct {
	// ID is the worker's metric-safe name (required; 1..64 chars of
	// [a-zA-Z0-9_-]) — what the coordinator's failover audit trail and
	// per-worker histograms call it.
	ID string
	// CheckpointDir holds the worker's per-campaign runner checkpoints
	// (required). A SIGKILLed worker that restarts over the same directory
	// resumes its interrupted campaigns point-for-point.
	CheckpointDir string
	// MaxConcurrent bounds simultaneously executing jobs; excess requests
	// are shed with 503 so the coordinator fails over (default 2).
	MaxConcurrent int
	// PointWorkers is the runner worker count inside each campaign
	// (default 1; results are identical for any value).
	PointWorkers int
	// Registry receives the worker.* and runner.* counters; nil creates a
	// private one.
	Registry *telemetry.Registry
	// Logger receives structured per-job logs. nil disables logging.
	Logger *slog.Logger
}

// Worker is the lab-pool execution node: the same campaign validation and
// campaign executor (executor.runSweep, with a resume-always checkpoint per
// campaign under CheckpointDir, on the real filesystem) as the
// coordinator's local path, behind the cluster wire protocol (POST
// /v1/execute, GET /healthz). Campaigns are pure functions of their specs,
// so the bytes a worker returns are identical to what any sibling — or the
// coordinator running locally — would produce.
type Worker struct {
	cfg  WorkerConfig
	exec executor
	reg  *telemetry.Registry
	log  *slog.Logger

	sem      chan struct{}
	draining atomic.Bool
	inflight atomic.Int64
	wg       sync.WaitGroup

	requests, executed, completed *telemetry.Counter
	failed, shed                  *telemetry.Counter
}

// NewWorker builds a worker over its checkpoint directory.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("server: WorkerConfig.ID is required")
	}
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("server: WorkerConfig.CheckpointDir is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.PointWorkers <= 0 {
		cfg.PointWorkers = 1
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	reg := cfg.Registry
	log := obslog.OrDiscard(cfg.Logger)
	exec := executor{dir: cfg.CheckpointDir, fs: vfs.OS(), workers: cfg.PointWorkers, reg: reg, log: log}
	if err := exec.fs.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: create worker checkpoint dir: %w", err)
	}
	return &Worker{
		cfg:  cfg,
		exec: exec,
		reg:  reg,
		log:  log,
		sem:  make(chan struct{}, cfg.MaxConcurrent),

		requests:  reg.Counter("worker.requests"),
		executed:  reg.Counter("worker.jobs.executed"),
		completed: reg.Counter("worker.jobs.completed"),
		failed:    reg.Counter("worker.jobs.failed"),
		shed:      reg.Counter("worker.jobs.shed"),
	}, nil
}

// Registry exposes the worker's metric registry.
func (w *Worker) Registry() *telemetry.Registry { return w.reg }

// Handler builds the worker's routing table (the cluster wire protocol plus
// the standard observability endpoints).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+cluster.ExecutePath, w.handleExecute)
	mux.HandleFunc("GET /healthz", w.handleHealthz)
	mux.HandleFunc("GET /metrics", metricsHandler(w.reg))
	return mux
}

// Drain refuses new jobs (heartbeats start failing, pulling the worker out
// of rotation) and waits for in-flight jobs to finish or checkpoint.
func (w *Worker) Drain(ctx context.Context) error {
	w.draining.Store(true)
	done := make(chan struct{})
	go func() {
		w.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: worker drain incomplete: %w", ctx.Err())
	}
}

// handleExecute runs one campaign job: the identical validation the
// coordinator front door applies, then the supervised runner with a
// fingerprint-keyed checkpoint so a killed worker resumes on restart.
func (w *Worker) handleExecute(rw http.ResponseWriter, r *http.Request) {
	w.requests.Inc()
	if w.draining.Load() {
		w.shed.Inc()
		writeJSON(rw, http.StatusServiceUnavailable, map[string]string{"error": "worker is draining"})
		return
	}
	select {
	case w.sem <- struct{}{}:
	default:
		w.shed.Inc()
		rw.Header().Set("Retry-After", "1")
		writeJSON(rw, http.StatusServiceUnavailable, map[string]string{"error": "worker at capacity"})
		return
	}
	defer func() { <-w.sem }()
	w.wg.Add(1)
	defer w.wg.Done()

	corr := requestCorrelation(r)
	ctx := obslog.WithCorrelation(r.Context(), corr)
	wlog := obslog.Ctx(w.log, ctx)

	var spec CampaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(rw, http.StatusBadRequest, map[string]string{"error": "malformed campaign spec: " + err.Error()})
		return
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		writeValidationError(rw, err)
		return
	}
	key := spec.Key()
	if want := r.Header.Get(cluster.HeaderJobKey); want != "" && want != key {
		// The coordinator and this worker disagree about the spec's content
		// address — version skew that must fail loudly, not poison a cache
		// entry under the wrong key.
		writeJSON(rw, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("spec key mismatch: coordinator sent %s, worker computed %s (schema skew?)", want, key),
		})
		return
	}

	w.executed.Inc()
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	wlog.Info("worker job started", "key", key, "worker", w.cfg.ID)
	body, _, err := w.exec.runSweep(ctx, key, spec, nil)
	if err != nil {
		w.failed.Inc()
		status := http.StatusInternalServerError
		if ctx.Err() != nil {
			// The coordinator hung up (hedge loss, failover, client gone);
			// the checkpoint keeps completed points for the next attempt.
			status = http.StatusServiceUnavailable
		}
		wlog.Warn("worker job failed", "key", key, "err", err)
		writeJSON(rw, status, map[string]string{"error": err.Error()})
		return
	}
	w.completed.Inc()
	wlog.Info("worker job completed", "key", key, "bytes", len(body))
	rw.Header().Set("Content-Type", "application/json")
	rw.Header().Set(cluster.HeaderJobKey, key)
	rw.WriteHeader(http.StatusOK)
	rw.Write(body)
	// The checkpoint goes only once the response is written, so a worker
	// killed before that resumes the campaign instead of recomputing it.
	w.exec.removeCheckpoint(key)
}

// handleHealthz answers heartbeat probes: 200 while accepting jobs, 503 once
// draining — the coordinator treats any non-200 as a failed probe, so a
// draining worker leaves rotation before its listener closes.
func (w *Worker) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	state := "ok"
	if w.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(rw, status, map[string]any{
		"status":   state,
		"id":       w.cfg.ID,
		"inflight": w.inflight.Load(),
	})
}

// RegisterLoop announces the worker to the coordinator now and on every
// interval until ctx ends. Periodic re-registration is the revival path: a
// worker the coordinator evicted (or a restarted coordinator with an empty
// pool) re-learns the worker within one interval.
func RegisterLoop(ctx context.Context, httpc *http.Client, coordinator string, req cluster.RegisterRequest, interval time.Duration, log *slog.Logger) {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	if interval <= 0 {
		interval = time.Second
	}
	log = obslog.OrDiscard(log)
	register := func() {
		raw, err := json.Marshal(req)
		if err != nil {
			return
		}
		rctx, cancel := context.WithTimeout(ctx, interval)
		defer cancel()
		hreq, err := http.NewRequestWithContext(rctx, http.MethodPost,
			coordinator+cluster.RegisterPath, bytes.NewReader(raw))
		if err != nil {
			return
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := httpc.Do(hreq)
		if err != nil {
			log.Debug("worker registration attempt failed",
				"coordinator", coordinator, "err", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Warn("worker registration rejected",
				"coordinator", coordinator, "status", resp.StatusCode)
		}
	}
	register()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			register()
		}
	}
}
