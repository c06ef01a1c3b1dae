// Package cluster shards campaign jobs across a pool of worker processes
// and keeps campaigns completing when those workers crash, hang, or
// partition — the multi-node growth path of the campaign service.
//
// The Coordinator embeds in afterimage-serve. Workers (cmd/afterimage-worker)
// self-register over HTTP and are health-checked by heartbeat probes with
// deadline-based eviction; each worker sits behind its own circuit breaker
// (closed/open/half-open with probe requests). A campaign dispatch walks the
// key's rendezvous-hash worker ranking with jittered-exponential retry
// (reusing the runner's deterministic backoff), hedges straggler requests
// against the next-ranked worker after a latency-percentile delay (first
// result wins, the loser's request context is canceled), and — whenever zero
// workers are dispatchable — degrades to local in-process execution: the
// service never refuses a campaign it could have run alone.
//
// The package is payload-agnostic: a job is (key, payload bytes) → result
// bytes. Campaign results are pure functions of their specs, so the bytes a
// worker returns are identical to a local run's — every failover path
// preserves the service's byte-identity guarantee, which the chaos harness
// verifies under seeded worker kills and injected netsplits (see Injector,
// the deterministic drop/delay/duplicate/partition fault layer).
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"afterimage/internal/obslog"
	"afterimage/internal/telemetry"
)

// The worker wire protocol. A worker serves POST ExecutePath taking the
// payload as the request body (the campaign key rides HeaderJobKey) and
// answering 200 with the result bytes, plus GET /healthz for heartbeats.
const (
	// ExecutePath is the worker's job-execution endpoint.
	ExecutePath = "/v1/execute"
	// RegisterPath is the coordinator's registration endpoint (served by
	// afterimage-serve, not by this package).
	RegisterPath = "/v1/cluster/register"
	// HeaderJobKey carries the job's campaign key on execute requests and
	// responses.
	HeaderJobKey = "X-Afterimage-Key"
)

// RegisterRequest is the body a worker POSTs to RegisterPath.
type RegisterRequest struct {
	// ID is the worker's metric-safe name (1..64 chars of [a-zA-Z0-9_-]).
	ID string `json:"id"`
	// Addr is the worker's base URL, e.g. "http://127.0.0.1:9001".
	Addr string `json:"addr"`
}

// LocalFunc executes one job in-process — the degradation path when no
// worker is dispatchable. It must produce bytes identical to what a worker
// would return for the same payload.
type LocalFunc func(ctx context.Context, key string, payload []byte) ([]byte, error)

// Config assembles a Coordinator.
type Config struct {
	// HeartbeatInterval is the pause between heartbeat rounds (default
	// 250ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the per-probe deadline (default 1s).
	HeartbeatTimeout time.Duration
	// EvictAfter evicts a worker whose last successful contact is older
	// than this (default 4 × HeartbeatInterval). Evicted workers get no
	// traffic until they re-register.
	EvictAfter time.Duration

	// BreakerThreshold opens a worker's breaker after this many consecutive
	// dispatch failures (default 3).
	BreakerThreshold int
	// BreakerCooldown holds an open breaker before the half-open probe
	// (default 2s).
	BreakerCooldown time.Duration

	// DispatchRounds bounds how many workers one job tries before degrading
	// to local execution (default 3).
	DispatchRounds int
	// DispatchTimeout is the per-attempt request deadline (default 0 =
	// bounded only by the job context).
	DispatchTimeout time.Duration
	// BackoffBase/BackoffMax shape the deterministic jittered-exponential
	// pause between failover rounds (defaults 25ms / 1s; the jitter is the
	// runner's (seed, key, round) construction, so retry timing replays).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the backoff jitter.
	Seed int64

	// HedgeAfter, when positive, hedges every dispatch at this fixed delay.
	// When zero, the hedge delay is the HedgePercentile of recent dispatch
	// latencies (floored at HedgeMin), and hedging waits until
	// HedgeMinSamples dispatches have been observed.
	HedgeAfter      time.Duration
	HedgePercentile float64 // default 0.95
	HedgeMin        time.Duration
	HedgeMinSamples int // default 8

	// Local is the in-process degradation path (required for the
	// never-refuse guarantee; a nil Local turns exhaustion into an error).
	Local LocalFunc
	// HTTP is the transport for probes and dispatches (default
	// http.DefaultClient); chaos tests wrap it around an Injector.
	HTTP *http.Client
	// Registry receives the cluster.* counters and per-worker dispatch
	// histograms; nil creates a private one.
	Registry *telemetry.Registry
	// Logger receives structured membership and failover logs; nil
	// disables logging.
	Logger *slog.Logger

	// now overrides the clock (tests).
	now func() time.Time
}

// Coordinator owns the worker pool and dispatches jobs across it.
type Coordinator struct {
	cfg  Config
	pool *pool
	reg  *telemetry.Registry
	log  *slog.Logger

	started  atomic.Bool
	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{}

	lat *latencyRing // pooled dispatch latencies, feeds the hedge delay

	dispatches, dispatchOK, dispatchErrors        *telemetry.Counter
	failovers, retryWaits                         *telemetry.Counter
	hedged, hedgeWins, hedgeLosses                *telemetry.Counter
	degradedLocal                                 *telemetry.Counter
	heartbeatProbes, heartbeatFailures            *telemetry.Counter
	breakerOpened, breakerHalfOpen, breakerClosed *telemetry.Counter
	dispatchUS                                    *telemetry.Histogram
}

// dispatchBounds bucket one dispatch round trip in µs: LAN-local workers
// answer small campaigns in milliseconds, big ones in tens of seconds.
var dispatchBounds = []uint64{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000}

// New builds a coordinator. Call Start to begin heartbeating, Register (or
// serve RegisterPath into HandleRegister) to add workers.
func New(cfg Config) *Coordinator {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 250 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = time.Second
	}
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = 4 * cfg.HeartbeatInterval
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.DispatchRounds <= 0 {
		cfg.DispatchRounds = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.HedgePercentile <= 0 || cfg.HedgePercentile > 1 {
		cfg.HedgePercentile = 0.95
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = 20 * time.Millisecond
	}
	if cfg.HedgeMinSamples <= 0 {
		cfg.HedgeMinSamples = 8
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	reg := cfg.Registry
	c := &Coordinator{
		cfg:   cfg,
		pool:  newPool(reg),
		reg:   reg,
		log:   obslog.OrDiscard(cfg.Logger),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
		lat:   newLatencyRing(128),

		dispatches:        reg.Counter("cluster.dispatch.requests"),
		dispatchOK:        reg.Counter("cluster.dispatch.worker_ok"),
		dispatchErrors:    reg.Counter("cluster.dispatch.errors"),
		failovers:         reg.Counter("cluster.dispatch.failovers"),
		retryWaits:        reg.Counter("cluster.dispatch.retry_waits"),
		hedged:            reg.Counter("cluster.dispatch.hedged"),
		hedgeWins:         reg.Counter("cluster.dispatch.hedge_wins"),
		hedgeLosses:       reg.Counter("cluster.dispatch.hedge_losses"),
		degradedLocal:     reg.Counter("cluster.dispatch.local"),
		heartbeatProbes:   reg.Counter("cluster.heartbeat.probes"),
		heartbeatFailures: reg.Counter("cluster.heartbeat.failures"),
		breakerOpened:     reg.Counter("cluster.breaker.opened"),
		breakerHalfOpen:   reg.Counter("cluster.breaker.half_open"),
		breakerClosed:     reg.Counter("cluster.breaker.closed"),
		dispatchUS:        reg.Histogram("cluster.dispatch.us", dispatchBounds),
	}
	return c
}

func (c *Coordinator) now() time.Time { return c.cfg.now() }

// SetLocal installs the in-process degradation path after construction —
// the embedding server builds the coordinator first, then hands it the local
// executor once the server exists. Call before Start/Dispatch.
func (c *Coordinator) SetLocal(fn LocalFunc) { c.cfg.Local = fn }

func (c *Coordinator) httpClient() *http.Client {
	if c.cfg.HTTP != nil {
		return c.cfg.HTTP
	}
	return http.DefaultClient
}

// Registry exposes the coordinator's metric registry.
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

// Register adds (or revives) a worker at addr. Registration is idempotent:
// workers re-register on a timer, which both survives coordinator restarts
// and revives workers the pool evicted while they were down.
func (c *Coordinator) Register(id, addr string) error {
	if !telemetry.ValidSegment(id) {
		return fmt.Errorf("cluster: invalid worker id %q: want 1..64 chars of [a-zA-Z0-9_-]", id)
	}
	if addr == "" {
		return fmt.Errorf("cluster: worker %q registered with an empty addr", id)
	}
	now := c.now()
	p := c.pool
	p.mu.Lock()
	w, known := p.workers[addr]
	if !known {
		w = &worker{
			id:      id,
			addr:    addr,
			breaker: NewBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown),
			lat:     newLatencyRing(64),
			dispatchUS: c.reg.Histogram("cluster.worker."+id+".dispatch.us",
				dispatchBounds),
		}
		w.breaker.onTransition = c.breakerTransition(w)
		w.lastSeen = now
		p.workers[addr] = w
		p.mu.Unlock()
		p.registered.Inc()
		c.log.Info("cluster: worker registered",
			"worker", id, "addr", addr)
		p.updateHealthyGauge()
		return nil
	}
	p.mu.Unlock()
	w.mu.Lock()
	revived := w.state == WorkerEvicted
	w.state = WorkerHealthy
	w.lastSeen = now
	w.mu.Unlock()
	if revived {
		p.revived.Inc()
		c.log.Info("cluster: evicted worker re-registered",
			"worker", w.id, "addr", addr)
	}
	p.updateHealthyGauge()
	return nil
}

// breakerTransition wires one worker's breaker state changes into the
// cluster counters and the log.
func (c *Coordinator) breakerTransition(w *worker) func(from, to BreakerState) {
	return func(from, to BreakerState) {
		switch to {
		case BreakerOpen:
			c.breakerOpened.Inc()
		case BreakerHalfOpen:
			c.breakerHalfOpen.Inc()
		case BreakerClosed:
			c.breakerClosed.Inc()
		}
		c.log.Info("cluster: breaker transition", "worker", w.id,
			"from", from.String(), "to", to.String())
	}
}

// Workers snapshots the pool for the status endpoint, sorted by id.
func (c *Coordinator) Workers() []WorkerStatus {
	now := c.now()
	all := c.pool.all()
	out := make([]WorkerStatus, 0, len(all))
	for _, w := range all {
		w.mu.Lock()
		st := WorkerStatus{
			ID:       w.id,
			Addr:     w.addr,
			State:    w.state.String(),
			LastSeen: w.lastSeen,
		}
		w.mu.Unlock()
		st.Breaker = w.breaker.State(now).String()
		out = append(out, st)
	}
	slices.SortFunc(out, func(a, b WorkerStatus) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// HealthyWorkers counts workers currently in the healthy state.
func (c *Coordinator) HealthyWorkers() int {
	n := 0
	for _, w := range c.pool.all() {
		w.mu.Lock()
		if w.state == WorkerHealthy {
			n++
		}
		w.mu.Unlock()
	}
	return n
}

// Start launches the heartbeat loop. Stop ends it.
func (c *Coordinator) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stopc:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Stop ends the heartbeat loop (if running) and waits for it to exit.
// Idempotent; safe without a prior Start.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stopc) })
	if c.started.Load() {
		<-c.done
	}
}
