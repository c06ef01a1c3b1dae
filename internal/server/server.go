// Package server is the campaign service: an HTTP/JSON front door that
// turns the deterministic simulator into a multi-tenant result service.
// Most traffic is a content-addressed cache hit (internal/store); identical
// in-flight requests collapse onto one execution (single-flight); fresh work
// passes a two-level admission controller (per-tenant quotas, bounded queue
// with 429 + Retry-After load shedding) and runs through internal/runner
// with fingerprint-keyed checkpoints, so a drain, deadline or client cancel
// loses at most the points in progress, and a crash those and less than
// 100 ms of completed compute per campaign (points are checkpointed in
// batches) — a restarted server resumes the rest and, because campaigns are
// pure functions of their spec, serves bytes identical to an uninterrupted
// run.
//
// API (JSON unless noted):
//
//	POST /v1/campaigns            submit a CampaignSpec; responds with the
//	                              SweepResult JSON (X-Afterimage-Cache:
//	                              hit|miss|join|degraded, X-Afterimage-Key:
//	                              <sha256>)
//	GET  /v1/campaigns/{key}      fetch a cached result (200), in-flight
//	                              progress (202), or 404
//	GET  /v1/campaigns/{key}/events   SSE stream of ProgressEvents
//	POST /v1/store/scrub          run one store integrity-scrub pass now;
//	                              responds with the ScrubReport JSON
//	GET  /metrics                 Prometheus 0.0.4 text exposition of the
//	                              telemetry registry (afterimage_runner_*,
//	                              afterimage_server_*, afterimage_store_*)
//	GET  /healthz                 liveness + drain state
//
// Disk faults degrade, they never fail a campaign: when the store cannot
// persist a computed result (full or failing disk, write-health breaker
// open), the result is still served with X-Afterimage-Cache: degraded — the
// cache write was shed, the bytes are identical to a cached run's.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"afterimage"
	"afterimage/internal/cluster"
	"afterimage/internal/obslog"
	"afterimage/internal/runner"
	"afterimage/internal/store"
	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

// Response headers.
const (
	// HeaderKey carries the campaign's content address on every result.
	HeaderKey = "X-Afterimage-Key"
	// HeaderCache reports how the result was produced: "hit" (store),
	// "miss" (this request executed the campaign), or "join" (deduplicated
	// onto another request's execution).
	HeaderCache = "X-Afterimage-Cache"
)

// Config assembles a Server.
type Config struct {
	// Store is the content-addressed result cache (required).
	Store *store.Store
	// CheckpointDir holds per-campaign runner checkpoints (required). It
	// must persist across restarts for drain/crash resume to work.
	CheckpointDir string
	// FS is the filesystem campaign checkpoints are written through; nil
	// means the real one (vfs.OS()). The disk-chaos harness injects faults
	// here; checkpoint write failures degrade to no-resume, never to a
	// failed campaign.
	FS vfs.FS
	// Registry receives runner.*, server.*, and store.* counters; nil
	// creates a private one.
	Registry *telemetry.Registry
	// MaxConcurrent bounds simultaneously executing campaigns (default 4).
	MaxConcurrent int
	// QueueDepth bounds campaigns waiting for an execution slot; beyond it
	// the server sheds with 429 + Retry-After (default 8).
	QueueDepth int
	// TenantQuota bounds one tenant's executing-or-queued campaigns;
	// exceeding it is an immediate 429 + Retry-After (default 2).
	TenantQuota int
	// PointWorkers is the runner worker count inside each campaign
	// (default 1; results are identical for any value).
	PointWorkers int
	// DefaultTimeout is the per-request execution deadline applied when a
	// spec carries no timeout_ms (0 = none). The deadline rides the flight
	// context into Lab.ArmCancel, so an expired campaign faults at the
	// next simulated operation, checkpoints, and returns 504.
	DefaultTimeout time.Duration
	// RetryAfter is the hint attached to 429/503 responses (default 2s).
	RetryAfter time.Duration
	// Logger receives structured request/campaign logs, stamped with each
	// campaign's correlation ID. nil disables logging.
	Logger *slog.Logger
	// SpanLog, when set, receives one JSONL span record per completed
	// campaign (telemetry.SpanRecord lines; validate with
	// telemetry.ValidateSpanLog). Writes are serialised by the server.
	SpanLog io.Writer
	// TraceRetention bounds how many completed campaigns' span trees the
	// server keeps for GET /v1/campaigns/{key}/trace (default 256, FIFO).
	TraceRetention int
	// Cluster, when set, shards campaign execution across the worker pool:
	// cache misses dispatch through the coordinator (failover, hedging) and
	// degrade to this server's in-process path when no worker is
	// dispatchable. New installs the local path on the coordinator.
	Cluster *cluster.Coordinator
	// SSEKeepalive is the interval between ": keepalive" comment frames on
	// idle progress streams, so intermediaries don't sever quiet connections
	// and the server detects (and reaps) dead subscribers (default 15s;
	// negative disables).
	SSEKeepalive time.Duration
}

// Server handles the campaign API. Create with New, serve via Handler, stop
// via Drain.
type Server struct {
	cfg  Config
	st   *store.Store
	exec executor
	reg  *telemetry.Registry

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
	wg         sync.WaitGroup // in-flight campaign executions

	fmu     sync.Mutex
	flights map[string]*flight

	admission *admission
	progress  *progressHub
	traces    *traceStore
	log       *slog.Logger
	spanLogMu sync.Mutex

	requests, cacheHits, cacheMisses        *telemetry.Counter
	joined, executed                        *telemetry.Counter
	completed, failed, canceled, degraded   *telemetry.Counter
	validationRejected, drainRejected       *telemetry.Counter
	sseSubscribed, sseKeepalives, sseReaped *telemetry.Counter
	sseActive                               *telemetry.Gauge

	// Test seams: gate blocks inside runCampaign before simulation (its
	// error aborts the run); pointDone observes each completed point.
	testGate      func(ctx context.Context, key string) error
	testPointDone func(key string, completed int)
}

// flight is one in-flight campaign execution that any number of identical
// requests wait on. The last waiter to leave cancels it — an abandoned
// campaign checkpoints and releases its slot instead of running for nobody.
type flight struct {
	key    string
	corr   string // correlation ID of the request that started the flight
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed after body/err are set

	body []byte
	err  *apiError
	// degraded marks a flight whose result could not be cached (the store
	// shed the write); waiters report X-Afterimage-Cache: degraded. Written
	// before done closes, read only after.
	degraded bool

	mu      sync.Mutex
	waiters int
}

// join registers another waiter.
func (f *flight) join() {
	f.mu.Lock()
	f.waiters++
	f.mu.Unlock()
}

// leave drops one waiter, canceling the execution when none remain.
func (f *flight) leave() {
	f.mu.Lock()
	f.waiters--
	if f.waiters <= 0 {
		f.cancel()
	}
	f.mu.Unlock()
}

// apiError is a failure with an HTTP shape.
type apiError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

// New builds a server over an opened store. The checkpoint directory is
// created if absent.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("server: Config.CheckpointDir is required")
	}
	if cfg.FS == nil {
		cfg.FS = vfs.OS()
	}
	if err := cfg.FS.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: create checkpoint dir: %w", err)
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.TenantQuota <= 0 {
		cfg.TenantQuota = 2
	}
	if cfg.PointWorkers <= 0 {
		cfg.PointWorkers = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.SSEKeepalive == 0 {
		cfg.SSEKeepalive = 15 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := cfg.Registry
	log := obslog.OrDiscard(cfg.Logger)
	s := &Server{
		cfg:        cfg,
		st:         cfg.Store,
		exec:       executor{dir: cfg.CheckpointDir, fs: cfg.FS, workers: cfg.PointWorkers, reg: reg, log: log},
		reg:        reg,
		baseCtx:    ctx,
		baseCancel: cancel,
		flights:    make(map[string]*flight),
		admission:  newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.TenantQuota, cfg.RetryAfter, reg),
		progress:   newProgressHub(),
		traces:     newTraceStore(cfg.TraceRetention),
		log:        log,

		requests:           reg.Counter("server.requests"),
		cacheHits:          reg.Counter("server.cache.hits"),
		cacheMisses:        reg.Counter("server.cache.misses"),
		joined:             reg.Counter("server.dedup.joined"),
		executed:           reg.Counter("server.campaigns.executed"),
		completed:          reg.Counter("server.campaigns.completed"),
		failed:             reg.Counter("server.campaigns.failed"),
		canceled:           reg.Counter("server.campaigns.canceled"),
		degraded:           reg.Counter("server.campaigns.degraded"),
		validationRejected: reg.Counter("server.requests.invalid"),
		drainRejected:      reg.Counter("server.drain.rejected"),
		sseSubscribed:      reg.Counter("server.sse.subscribed"),
		sseKeepalives:      reg.Counter("server.sse.keepalives"),
		sseReaped:          reg.Counter("server.sse.reaped"),
		sseActive:          reg.Gauge("server.sse.active"),
	}
	if cfg.Cluster != nil {
		// The coordinator's degradation path is this server's in-process
		// execution: zero healthy workers must never refuse a campaign the
		// service could have run alone.
		cfg.Cluster.SetLocal(func(ctx context.Context, key string, payload []byte) ([]byte, error) {
			var spec CampaignSpec
			if err := json.Unmarshal(payload, &spec); err != nil {
				return nil, fmt.Errorf("decode local job payload: %w", err)
			}
			body, _, err := s.executeLocal(ctx, key, spec.Normalize())
			return body, err
		})
	}
	return s, nil
}

// Registry exposes the server's metric registry (for tests and the binary).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Handler builds the HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns/{key}", s.handleGet)
	mux.HandleFunc("GET /v1/campaigns/{key}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{key}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/store/scrub", s.handleScrub)
	mux.HandleFunc("GET /metrics", metricsHandler(s.reg))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.Cluster != nil {
		mux.HandleFunc("POST "+cluster.RegisterPath, s.handleClusterRegister)
		mux.HandleFunc("GET /v1/cluster/workers", s.handleClusterWorkers)
	}
	return mux
}

// handleClusterRegister admits a worker into the pool. Workers re-POST on a
// timer, so registration is idempotent and doubles as the revival path.
func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	var req cluster.RegisterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed register request: " + err.Error()})
		return
	}
	if err := s.cfg.Cluster.Register(req.ID, req.Addr); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "registered", "id": req.ID})
}

// handleClusterWorkers snapshots pool membership, health, and breaker states.
func (s *Server) handleClusterWorkers(w http.ResponseWriter, _ *http.Request) {
	s.requests.Inc()
	writeJSON(w, http.StatusOK, map[string]any{"workers": s.cfg.Cluster.Workers()})
}

// Drain stops the server gracefully: new executions are refused with 503 +
// Retry-After, every in-flight campaign is canceled — the runner writes
// each completed point to the checkpoint before it returns, so nothing
// finished is lost — and Drain waits for them to unwind (bounded by ctx).
// Cache hits keep being served throughout. A restarted server resumes the
// checkpointed campaigns on their next request.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.baseCancel()
	s.log.Info("drain started")
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain complete")
		return nil
	case <-ctx.Done():
		s.log.Warn("drain incomplete", "err", ctx.Err())
		return fmt.Errorf("server: drain incomplete: %w", ctx.Err())
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleSubmit is the main entry point: validate → cache → single-flight →
// admission → execute.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	// Correlation first: accepted from the client or minted, echoed on every
	// response (including errors), and threaded through the whole campaign.
	corr := requestCorrelation(r)
	w.Header().Set(HeaderCampaignID, corr)
	rctx := obslog.WithCorrelation(r.Context(), corr)
	rlog := obslog.Ctx(s.log, rctx)

	var spec CampaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.validationRejected.Inc()
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed campaign spec: " + err.Error()})
		return
	}
	spec = spec.Normalize()
	if !telemetry.ValidSegment(spec.Tenant) {
		s.validationRejected.Inc()
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("invalid tenant %q: want 1..64 chars of [a-zA-Z0-9_-]", spec.Tenant),
		})
		return
	}
	if err := spec.Validate(); err != nil {
		s.validationRejected.Inc()
		writeValidationError(w, err)
		return
	}
	s.reg.Counter("server.tenant." + spec.Tenant + ".requests").Inc()
	key := spec.Key()

	// Cache first: hits cost one read and bypass admission entirely — they
	// are served even while draining.
	if body, ok := s.st.GetCtx(rctx, key); ok {
		s.cacheHits.Inc()
		rlog.Debug("cache hit", "key", key, "tenant", spec.Tenant)
		writeResult(w, key, "hit", body)
		return
	}
	s.cacheMisses.Inc()

	if s.draining.Load() {
		s.drainRejected.Inc()
		rlog.Warn("submit rejected: draining", "key", key, "tenant", spec.Tenant)
		writeAPIError(w, key, &apiError{Status: http.StatusServiceUnavailable,
			Msg: "server is draining", RetryAfter: s.cfg.RetryAfter})
		return
	}

	f, started := s.flightFor(key, spec, corr)
	if !started {
		s.joined.Inc()
		rlog.Debug("joined in-flight campaign", "key", key,
			"flight_corr", f.corr)
	}
	defer f.leave()

	select {
	case <-f.done:
	case <-r.Context().Done():
		// The client went away; leave() (deferred) releases our stake and
		// cancels the execution if we were the last. The checkpoint keeps
		// the completed points for the next request.
		return
	}
	if f.err != nil {
		writeAPIError(w, key, f.err)
		return
	}
	source := "miss"
	if !started {
		source = "join"
	}
	if f.degraded {
		// The result is correct and complete; only its cache write was shed.
		source = "degraded"
	}
	writeResult(w, key, source, f.body)
}

// handleScrub triggers one on-demand store integrity pass — the triage lever
// after a disk incident: verify everything now instead of waiting for the
// background cadence.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	rep := s.st.Scrub(r.Context())
	obslog.Ctx(s.log, r.Context()).Info("on-demand store scrub",
		"scanned", rep.Scanned, "corrupt", rep.Corrupt)
	writeJSON(w, http.StatusOK, rep)
}

// flightFor joins the in-flight execution for key or starts one. The flight
// keeps the correlation ID of the request that started it: joiners get their
// own IDs echoed on their responses, but the execution — and therefore the
// span tree — belongs to the starter's ID.
func (s *Server) flightFor(key string, spec CampaignSpec, corr string) (*flight, bool) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if f, ok := s.flights[key]; ok {
		f.join()
		return f, false
	}
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMs > 0 {
		timeout = time.Duration(spec.TimeoutMs) * time.Millisecond
	}
	var fctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		fctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		fctx, cancel = context.WithCancel(s.baseCtx)
	}
	// The flight context carries the correlation ID below the HTTP layer:
	// admission, the store, the runner, and the per-point simulator labs all
	// see it via obslog.Correlation.
	fctx = obslog.WithCorrelation(fctx, corr)
	f := &flight{key: key, corr: corr, ctx: fctx, cancel: cancel, done: make(chan struct{}), waiters: 1}
	s.flights[key] = f
	// Pin the key for the flight's lifetime: the GC must not evict a result
	// between the moment the campaign writes it and the moment the last
	// waiter reads it back.
	s.st.Pin(key)
	s.wg.Add(1)
	go s.execute(f, spec)
	return f, true
}

// execute runs one flight to completion: admission, campaign, store.
func (s *Server) execute(f *flight, spec CampaignSpec) {
	defer s.wg.Done()
	defer func() {
		s.fmu.Lock()
		delete(s.flights, f.key)
		s.fmu.Unlock()
		f.cancel()
		close(f.done)
		s.st.Unpin(f.key)
	}()

	flog := obslog.Ctx(s.log, f.ctx)
	s.progress.publish(ProgressEvent{Type: "queued", Key: f.key, Total: len(spec.Intensities)})
	flog.Info("campaign queued", "key", f.key, "tenant", spec.Tenant,
		"points", len(spec.Intensities))
	release, aerr := s.admission.acquire(f.ctx, spec.Tenant)
	if aerr != nil {
		f.err = aerr
		flog.Warn("campaign rejected at admission", "key", f.key,
			"status", aerr.Status, "err", aerr.Msg)
		s.progress.publish(ProgressEvent{Type: "error", Key: f.key, Err: aerr.Msg})
		return
	}
	defer release()
	flog.Info("campaign admitted", "key", f.key)

	body, res, degraded, err := s.runCampaign(f.ctx, f.key, spec)
	if err != nil {
		f.err = s.campaignError(f.ctx, err)
		flog.Warn("campaign failed", "key", f.key,
			"status", f.err.Status, "err", err)
		s.progress.publish(ProgressEvent{Type: "error", Key: f.key, Err: f.err.Msg})
		return
	}
	flog.Info("campaign completed", "key", f.key, "bytes", len(body),
		"cache_degraded", degraded)
	f.body = body
	f.degraded = degraded
	if phases := res.PhaseSummaries(); len(phases) > 0 {
		s.progress.publish(ProgressEvent{Type: "phases", Key: f.key, Phases: phases})
	}
	s.progress.publish(ProgressEvent{Type: "done", Key: f.key,
		Completed: len(spec.Intensities), Total: len(spec.Intensities)})
}

// runCampaign executes the sweep under the flight context — in-process, or,
// when a cluster coordinator is configured, dispatched across the worker
// pool — and completes it (complete). Campaigns are pure functions of their
// specs, so both paths produce byte-identical results. The returned
// degraded flag reports a shed cache write: the result is complete and
// correct, the store just could not persist it (see persistResult).
func (s *Server) runCampaign(ctx context.Context, key string, spec CampaignSpec) ([]byte, afterimage.SweepResult, bool, error) {
	s.executed.Inc()
	if s.testGate != nil {
		if err := s.testGate(ctx, key); err != nil {
			return nil, afterimage.SweepResult{}, false, err
		}
	}
	s.progress.publish(ProgressEvent{Type: "started", Key: key, Total: len(spec.Intensities)})

	if s.cfg.Cluster != nil {
		return s.runCampaignDispatched(ctx, key, spec)
	}
	body, res, err := s.executeLocal(ctx, key, spec)
	if err != nil {
		return nil, afterimage.SweepResult{}, false, err
	}
	return body, res, s.complete(ctx, key, spec, body, res, nil), nil
}

// complete finishes a computed campaign, local or dispatched: it stores the
// result, then removes the campaign's checkpoint (the local path's, or one
// left by a dispatch that degraded to it), counts the completion, and
// records the span tree with the dispatch attempts, if any, in the trace
// store and the span log. The span tree is derived from the deterministic
// result, so a resumed campaign reports the identical trace an
// uninterrupted run would have — the byte-identity guarantee extends to
// observability. It returns persistResult's degraded flag.
func (s *Server) complete(ctx context.Context, key string, spec CampaignSpec, body []byte, res afterimage.SweepResult, dispatch []cluster.Attempt) bool {
	degraded := s.persistResult(ctx, key, body)
	s.exec.removeCheckpoint(key)
	s.completed.Inc()
	rec := buildCampaignSpans(obslog.Correlation(ctx), key, spec, res, dispatch)
	s.traces.put(rec)
	s.appendSpanLog(rec)
	return degraded
}

// persistResult caches a computed campaign result, shedding the write — not
// the campaign — when the disk refuses it. A true return means degraded: the
// result was served uncached and the next identical request recomputes (and
// re-attempts the cache write, which is how the cache heals). The caller
// removes the campaign's checkpoint only after it returns, so a kill in
// between finds the result stored or the checkpoint still there.
func (s *Server) persistResult(ctx context.Context, key string, body []byte) bool {
	err := s.st.PutCtx(ctx, key, body)
	if err == nil {
		return false
	}
	s.degraded.Inc()
	obslog.Ctx(s.log, ctx).Warn("result cache write shed; serving uncached result",
		"key", key, "err", err)
	return true
}

// executeLocal runs the campaign in-process through the server's executor,
// publishing a progress event per completed point. It is both the
// non-cluster execution path and the cluster's degrade-to-local fallback.
func (s *Server) executeLocal(ctx context.Context, key string, spec CampaignSpec) ([]byte, afterimage.SweepResult, error) {
	total := len(spec.Intensities)
	return s.exec.runSweep(ctx, key, spec, func(completed int) {
		s.progress.publish(ProgressEvent{Type: "point", Key: key, Completed: completed, Total: total})
		if s.testPointDone != nil {
			s.testPointDone(key, completed)
		}
	})
}

// runCampaignDispatched routes the campaign through the cluster coordinator:
// rendezvous-sharded worker dispatch with failover and hedging, degrading to
// executeLocal when no worker is dispatchable. The worker's bytes are stored
// verbatim — they are identical to what the local path would produce — and
// the dispatch attempts ride into the span tree so traces show which worker
// ran each attempt and why failovers happened.
func (s *Server) runCampaignDispatched(ctx context.Context, key string, spec CampaignSpec) ([]byte, afterimage.SweepResult, bool, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, afterimage.SweepResult{}, false, fmt.Errorf("encode campaign spec: %w", err)
	}
	dres, err := s.cfg.Cluster.Dispatch(ctx, key, payload)
	if err != nil {
		return nil, afterimage.SweepResult{}, false, err
	}
	var res afterimage.SweepResult
	if err := json.Unmarshal(dres.Body, &res); err != nil {
		return nil, afterimage.SweepResult{}, false, fmt.Errorf("decode dispatched result: %w", err)
	}
	obslog.Ctx(s.log, ctx).Info("campaign dispatched", "key", key,
		"mode", dres.Mode, "worker", dres.Worker, "attempts", len(dres.Attempts))
	return dres.Body, res, s.complete(ctx, key, spec, dres.Body, res, dres.Attempts), nil
}

// executor runs campaigns in-process: the sweep under the supervised runner
// with resume always on and a fingerprint-keyed checkpoint per campaign
// under dir, written and removed through fs. The coordinator's local path
// and the worker each run campaigns through one, so their bytes are
// identical.
type executor struct {
	dir     string
	fs      vfs.FS
	workers int
	reg     *telemetry.Registry
	log     *slog.Logger
}

// runSweep runs spec's sweep with no caller lab
// (afterimage.RunFaultSweepCtx): if a previous run of this campaign was
// interrupted (crash, drain, client cancel, a coordinator that hung up),
// the completed points in its checkpoint are loaded instead of
// re-simulated, and the final bytes equal an uninterrupted run's.
// onComplete, when set, observes each completed point. The checkpoint is
// ephemeral: a run that completes writes no more of it, and any file an
// earlier write left stays until the caller removes it (removeCheckpoint)
// once the result is where a restart finds it (stored by the coordinator,
// sent by the worker).
func (e *executor) runSweep(ctx context.Context, key string, spec CampaignSpec, onComplete func(completed int)) ([]byte, afterimage.SweepResult, error) {
	// The deadline/cancel wiring below the runner: each sweep point's job
	// context descends from ctx, and the sweep arms each point lab's
	// simulator watchdog with it (Lab.ArmCancel), so cancellation and
	// deadlines surface as typed FaultBudget faults at the next simulated
	// operation.
	so := spec.sweepOptions()
	so.Runner = runner.Options{
		Workers:        e.workers,
		Metrics:        e.reg,
		Logger:         e.log,
		CheckpointPath: e.checkpointPath(key),
		FS:             e.fs,
		Resume:         true,
		Ephemeral:      true,
		OnComplete:     onComplete,
	}
	res, err := afterimage.RunFaultSweepCtx(ctx, spec.labOptions(), so)
	if err != nil {
		return nil, afterimage.SweepResult{}, err
	}
	body, err := res.JSON()
	if err != nil {
		return nil, afterimage.SweepResult{}, fmt.Errorf("encode result: %w", err)
	}
	return body, res, nil
}

func (e *executor) checkpointPath(key string) string {
	return filepath.Join(e.dir, key+".ckpt")
}

// removeCheckpoint deletes a finished campaign's checkpoint.
func (e *executor) removeCheckpoint(key string) {
	// Best effort: the result supersedes it, and a survivor only makes the
	// next run of the campaign resume instead of recompute.
	_ = e.fs.Remove(e.checkpointPath(key))
}

// campaignError maps an execution failure onto an HTTP shape. Cancellation
// and deadlines are retryable by design: progress is checkpointed, so a
// retry resumes rather than restarts.
func (s *Server) campaignError(ctx context.Context, err error) *apiError {
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.canceled.Inc()
		return &apiError{Status: http.StatusGatewayTimeout,
			Msg:        "campaign deadline exceeded; completed points are checkpointed — retry to resume",
			RetryAfter: s.cfg.RetryAfter}
	case ctx.Err() != nil:
		s.canceled.Inc()
		return &apiError{Status: http.StatusServiceUnavailable,
			Msg:        "campaign canceled (drain or client gone); completed points are checkpointed — retry to resume",
			RetryAfter: s.cfg.RetryAfter}
	default:
		s.failed.Inc()
		return &apiError{Status: http.StatusInternalServerError, Msg: err.Error()}
	}
}

// handleGet serves a cached result, in-flight progress (202), or 404.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed campaign key"})
		return
	}
	if body, ok := s.st.Get(key); ok {
		s.cacheHits.Inc()
		writeResult(w, key, "hit", body)
		return
	}
	if ev, ok := s.progress.state(key); ok {
		w.Header().Set(HeaderKey, key)
		writeJSON(w, http.StatusAccepted, ev)
		return
	}
	writeJSON(w, http.StatusNotFound, map[string]string{"error": "campaign not cached and not in flight"})
}

// handleEvents streams ProgressEvents for one campaign as server-sent
// events. A subscriber to an already-cached campaign receives a single
// terminal done event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed campaign key"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set(HeaderKey, key)
	w.WriteHeader(http.StatusOK)

	writeSSE := func(ev ProgressEvent) bool {
		raw, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", raw); err != nil {
			return false
		}
		flusher.Flush()
		return ev.Type != "done" && ev.Type != "error"
	}

	if _, ok := s.st.Get(key); ok {
		writeSSE(ProgressEvent{Type: "done", Key: key, Cached: true})
		return
	}
	ch, cancel := s.progress.subscribe(key)
	defer cancel()
	s.sseSubscribed.Inc()
	s.sseActive.Add(1)
	defer s.sseActive.Add(-1)
	// The store may have gained the entry between the check and the
	// subscription; re-check so a race cannot strand the subscriber.
	if _, ok := s.st.Get(key); ok {
		writeSSE(ProgressEvent{Type: "done", Key: key, Cached: true})
		return
	}
	// Periodic comment frames keep idle streams alive through buffering
	// intermediaries and — because a dead subscriber's write fails — bound
	// how long a vanished client can hold its subscription slot.
	var keepalive <-chan time.Time
	if s.cfg.SSEKeepalive > 0 {
		t := time.NewTicker(s.cfg.SSEKeepalive)
		defer t.Stop()
		keepalive = t.C
	}
	for {
		select {
		case ev := <-ch:
			if !writeSSE(ev) {
				if ev.Type != "done" && ev.Type != "error" {
					s.sseReaped.Inc()
				}
				return
			}
		case <-keepalive:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				s.sseReaped.Inc()
				return
			}
			flusher.Flush()
			s.sseKeepalives.Inc()
		case <-r.Context().Done():
			return
		}
	}
}

// metricsHandler serves /metrics for one registry as Prometheus 0.0.4 text
// exposition: HELP/TYPE metadata, per-tenant counters as a tenant label,
// and the latency histograms as cumulative _bucket series. The server and
// the worker share it, so both expose the same format.
func metricsHandler(reg *telemetry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", telemetry.PrometheusContentType)
		telemetry.WritePrometheus(w, reg.Snapshot())
	}
}

// handleHealthz is the load-balancer probe: 200 while serving, 503 once
// Drain has begun so replicas fall out of rotation before the listener
// closes. The body always carries the drain state either way.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":   "draining",
			"draining": true,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": false,
	})
}

func writeResult(w http.ResponseWriter, key, source string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderKey, key)
	w.Header().Set(HeaderCache, source)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func writeAPIError(w http.ResponseWriter, key string, e *apiError) {
	if key != "" {
		w.Header().Set(HeaderKey, key)
	}
	if e.RetryAfter > 0 {
		secs := int64((e.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, e.Status, map[string]string{"error": e.Msg})
}

// writeValidationError renders a typed *OptionError structurally (struct,
// field, constraint) so clients can point at the offending spec field; other
// validation failures fall back to the plain error shape.
func writeValidationError(w http.ResponseWriter, err error) {
	var oe *afterimage.OptionError
	if errors.As(err, &oe) {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error":      oe.Error(),
			"struct":     oe.Struct,
			"field":      oe.Field,
			"value":      fmt.Sprint(oe.Value),
			"constraint": oe.Constraint,
		})
		return
	}
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	raw, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(w, `{"error": %q}`, "encode response: "+err.Error())
		return
	}
	w.Write(raw)
	if !strings.HasSuffix(string(raw), "\n") {
		w.Write([]byte("\n"))
	}
}
