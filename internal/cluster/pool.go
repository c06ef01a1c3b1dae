package cluster

import (
	"context"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"afterimage/internal/telemetry"
)

// WorkerState is one worker's health phase in the pool.
type WorkerState int

// The health phases.
const (
	// WorkerHealthy answers heartbeats within the probe deadline.
	WorkerHealthy WorkerState = iota
	// WorkerSuspect has missed at least one heartbeat but not yet the
	// eviction deadline; it is dispatched to only when no healthy worker is
	// available.
	WorkerSuspect
	// WorkerEvicted missed heartbeats past the eviction deadline; it
	// receives no traffic until it re-registers.
	WorkerEvicted
)

// String names the state (also the status-endpoint spelling).
func (s WorkerState) String() string {
	switch s {
	case WorkerHealthy:
		return "healthy"
	case WorkerSuspect:
		return "suspect"
	case WorkerEvicted:
		return "evicted"
	default:
		return "unknown"
	}
}

// worker is one pool member.
type worker struct {
	id   string // metric-safe name ([a-zA-Z0-9_-])
	addr string // base URL, e.g. "http://127.0.0.1:9001"

	mu       sync.Mutex
	state    WorkerState
	lastSeen time.Time // last successful probe or dispatch

	breaker    *Breaker
	lat        *latencyRing
	dispatchUS *telemetry.Histogram // cluster.worker.<id>.dispatch.us
}

// setSeen marks a successful interaction (probe or dispatch) at now.
func (w *worker) setSeen(now time.Time) {
	w.mu.Lock()
	w.state = WorkerHealthy
	w.lastSeen = now
	w.mu.Unlock()
}

// WorkerStatus is the observable snapshot of one pool member, served by
// GET /v1/cluster/workers.
type WorkerStatus struct {
	ID       string    `json:"id"`
	Addr     string    `json:"addr"`
	State    string    `json:"state"`
	Breaker  string    `json:"breaker"`
	LastSeen time.Time `json:"last_seen"`
}

// pool is the coordinator's membership table.
type pool struct {
	mu      sync.Mutex
	workers map[string]*worker // by addr

	registered, evicted, revived *telemetry.Counter
	healthyGauge                 *telemetry.Gauge
}

func newPool(reg *telemetry.Registry) *pool {
	p := &pool{workers: make(map[string]*worker)}
	if reg != nil {
		p.registered = reg.Counter("cluster.workers.registered")
		p.evicted = reg.Counter("cluster.workers.evicted")
		p.revived = reg.Counter("cluster.workers.revived")
		p.healthyGauge = reg.Gauge("cluster.workers.healthy")
	}
	return p
}

// all snapshots the membership slice (the *worker pointers are shared).
func (p *pool) all() []*worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*worker, 0, len(p.workers))
	for _, w := range p.workers {
		out = append(out, w)
	}
	return out
}

// updateHealthyGauge recounts dispatchable workers. Callers need not hold
// p.mu.
func (p *pool) updateHealthyGauge() {
	if p.healthyGauge == nil {
		return
	}
	n := int64(0)
	for _, w := range p.all() {
		w.mu.Lock()
		if w.state == WorkerHealthy {
			n++
		}
		w.mu.Unlock()
	}
	p.healthyGauge.Set(n)
}

// rankWorkers orders candidates for a key by rendezvous (highest-random-
// weight) hashing: every (worker, key) pair gets a score and workers are
// sorted descending. Each campaign key therefore has a stable preferred
// worker for any given membership, shards spread uniformly, and membership
// changes only remap the keys that hashed to the departed worker.
//
// The score is FNV-1a over addr|key finished with the splitmix64 mixer.
// Raw FNV-1a is not enough: the key bytes come last and only reach the low
// and middle bits, so the high bits that decide the order would come from
// the address alone and send every key to the same worker.
func rankWorkers(workers []*worker, key string) []*worker {
	type scored struct {
		w     *worker
		score uint64
	}
	ranked := make([]scored, 0, len(workers))
	for _, w := range workers {
		h := fnv.New64a()
		io.WriteString(h, w.addr)
		io.WriteString(h, "|")
		io.WriteString(h, key)
		ranked = append(ranked, scored{w, mix64(h.Sum64())})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].w.addr < ranked[j].w.addr
	})
	out := make([]*worker, len(ranked))
	for i, s := range ranked {
		out[i] = s.w
	}
	return out
}

// mix64 is the splitmix64 finaliser: a bijection on uint64 in which every
// input bit affects every output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// latencyRing keeps the most recent dispatch durations for the hedging
// percentile. Fixed capacity; concurrent-safe.
type latencyRing struct {
	mu  sync.Mutex
	buf []time.Duration
	n   int // total observed
	idx int
}

func newLatencyRing(capacity int) *latencyRing {
	if capacity <= 0 {
		capacity = 64
	}
	return &latencyRing{buf: make([]time.Duration, 0, capacity)}
}

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, d)
	} else {
		r.buf[r.idx] = d
	}
	r.idx = (r.idx + 1) % cap(r.buf)
	r.n++
}

// count reports how many durations have been observed in total.
func (r *latencyRing) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// percentile reports the p-th percentile (0 < p <= 1) of the retained
// window; ok is false when the window is empty.
func (r *latencyRing) percentile(p float64) (time.Duration, bool) {
	r.mu.Lock()
	window := append([]time.Duration(nil), r.buf...)
	r.mu.Unlock()
	if len(window) == 0 {
		return 0, false
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	i := int(p*float64(len(window))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(window) {
		i = len(window) - 1
	}
	return window[i], true
}

// probe checks one worker's /healthz within the heartbeat deadline. Any
// non-200 answer (including a draining worker's 503) is a failed probe, so
// draining workers fall out of rotation before they stop answering at all.
func (c *Coordinator) probe(w *worker) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// probeAll runs one heartbeat round: every non-evicted worker is probed;
// successes refresh lastSeen (and count as the half-open breaker's probe
// request), failures age the worker toward suspicion and, past EvictAfter,
// eviction.
func (c *Coordinator) probeAll() {
	now := c.now()
	for _, w := range c.pool.all() {
		w.mu.Lock()
		state := w.state
		w.mu.Unlock()
		if state == WorkerEvicted {
			continue // only re-registration revives an evicted worker
		}
		c.heartbeatProbes.Inc()
		ok := c.probe(w)
		now = c.now()
		if ok {
			w.setSeen(now)
			// A healthy heartbeat is the cheapest possible half-open probe:
			// it closes a recovering worker's breaker without risking a
			// real campaign on it.
			if w.breaker.State(now) == BreakerHalfOpen && w.breaker.Allow(now) {
				w.breaker.Success(now)
			}
			continue
		}
		c.heartbeatFailures.Inc()
		w.mu.Lock()
		w.state = WorkerSuspect
		evict := now.Sub(w.lastSeen) > c.cfg.EvictAfter
		if evict {
			w.state = WorkerEvicted
		}
		w.mu.Unlock()
		if evict {
			c.pool.evicted.Inc()
			c.log.Warn("cluster: worker evicted",
				"worker", w.id, "addr", w.addr, "last_seen", w.lastSeen.Format(time.RFC3339Nano))
		}
	}
	c.pool.updateHealthyGauge()
}
