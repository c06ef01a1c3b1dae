package cluster

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afterimage/internal/telemetry"
)

// fakeWorker is an httptest-backed worker whose behaviour is swappable at
// runtime: it answers /healthz with 200 and ExecutePath with a deterministic
// body for the key, unless a failure mode is installed.
type fakeWorker struct {
	id    string
	hs    *httptest.Server
	hits  atomic.Int64 // execute requests received
	mu    sync.Mutex
	code  int           // non-zero: answer every execute with this status
	stall time.Duration // sleep (ctx-aware) before answering
}

// jobBody is the byte-identity contract every execution path must satisfy.
func jobBody(key string) string { return "result-for:" + key }

func newFakeWorker(t *testing.T, id string) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST "+ExecutePath, func(w http.ResponseWriter, r *http.Request) {
		fw.hits.Add(1)
		io.Copy(io.Discard, r.Body)
		fw.mu.Lock()
		code, stall := fw.code, fw.stall
		fw.mu.Unlock()
		if stall > 0 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(stall):
			}
		}
		if code != 0 {
			http.Error(w, "induced failure", code)
			return
		}
		key := r.Header.Get(HeaderJobKey)
		w.Header().Set(HeaderJobKey, key)
		io.WriteString(w, jobBody(key))
	})
	fw.hs = httptest.NewServer(mux)
	t.Cleanup(fw.hs.Close)
	return fw
}

func (fw *fakeWorker) setCode(code int)         { fw.mu.Lock(); fw.code = code; fw.mu.Unlock() }
func (fw *fakeWorker) setStall(d time.Duration) { fw.mu.Lock(); fw.stall = d; fw.mu.Unlock() }
func (fw *fakeWorker) host() string             { return strings.TrimPrefix(fw.hs.URL, "http://") }

// testCoordinator builds an unstarted coordinator with fast failover tuning
// and the given workers registered. Tests that need heartbeats call Start.
func testCoordinator(t *testing.T, mut func(*Config), fws ...*fakeWorker) (*Coordinator, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := Config{
		Registry:    reg,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	c := New(cfg)
	t.Cleanup(c.Stop)
	for _, fw := range fws {
		if err := c.Register(fw.id, fw.hs.URL); err != nil {
			t.Fatalf("register %s: %v", fw.id, err)
		}
	}
	return c, reg
}

func counterOf(t *testing.T, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	return reg.Snapshot().Counters[name]
}

// byAddr finds the fake worker behind a ranked candidate address.
func byAddr(fws []*fakeWorker, addr string) *fakeWorker {
	for _, fw := range fws {
		if fw.hs.URL == addr {
			return fw
		}
	}
	return nil
}

// TestDispatchRendezvousStability: the same key lands on the same worker
// every time, and keys spread evenly over workers — the sharding property
// that makes worker-side checkpoint reuse effective.
func TestDispatchRendezvousStability(t *testing.T) {
	fws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
	c, _ := testCoordinator(t, nil, fws...)

	seen := map[string]string{} // key -> worker id
	for round := 0; round < 2; round++ {
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("campaign-%d", i)
			res, err := c.Dispatch(context.Background(), key, []byte(`{}`))
			if err != nil {
				t.Fatalf("dispatch %s: %v", key, err)
			}
			if res.Mode != "worker" {
				t.Fatalf("dispatch %s: mode %q, want worker", key, res.Mode)
			}
			if string(res.Body) != jobBody(key) {
				t.Fatalf("dispatch %s: body %q, want %q", key, res.Body, jobBody(key))
			}
			if prev, ok := seen[key]; ok && prev != res.Worker {
				t.Fatalf("key %s moved from %s to %s with stable membership", key, prev, res.Worker)
			}
			seen[key] = res.Worker
		}
	}

	// Fair share: over 1000 keys, each worker is the first choice for
	// within 0.06 of 1/n of them, for fixed loopback addresses.
	const keys, tolerance = 1000, 0.06
	for _, n := range []int{2, 3, 5} {
		workers := make([]*worker, n)
		for i := range workers {
			workers[i] = &worker{addr: fmt.Sprintf("http://127.0.0.1:%d", 41000+i)}
		}
		first := map[string]int{}
		for i := 0; i < keys; i++ {
			first[rankWorkers(workers, fmt.Sprintf("campaign-%d", i))[0].addr]++
		}
		for _, w := range workers {
			share := float64(first[w.addr]) / keys
			if math.Abs(share-1/float64(n)) > tolerance {
				t.Errorf("%d workers: %s is first choice for %.3f of keys, want %.3f±%.2f", n, w.addr, share, 1/float64(n), tolerance)
			}
		}
	}
}

// TestDispatchFailover: when the key's first-ranked worker fails, the next
// round walks the rendezvous ranking and the campaign still completes with
// identical bytes; the audit trail records the failed attempt.
func TestDispatchFailover(t *testing.T) {
	fws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	c, reg := testCoordinator(t, nil, fws...)

	const key = "failover-campaign"
	primary := byAddr(fws, c.candidates(key)[0].addr)
	primary.setCode(http.StatusInternalServerError)

	res, err := c.Dispatch(context.Background(), key, []byte(`{}`))
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if string(res.Body) != jobBody(key) {
		t.Fatalf("body %q, want %q", res.Body, jobBody(key))
	}
	if res.Mode != "worker" || res.Worker == primary.id {
		t.Fatalf("result mode=%s worker=%s; want the non-failing worker", res.Mode, res.Worker)
	}
	if len(res.Attempts) != 2 || res.Attempts[0].Outcome != "error" || res.Attempts[1].Outcome != "ok" {
		t.Fatalf("attempts = %+v, want [error, ok]", res.Attempts)
	}
	if res.Attempts[0].Worker != primary.id {
		t.Fatalf("first attempt hit %s, want rendezvous primary %s", res.Attempts[0].Worker, primary.id)
	}
	if got := counterOf(t, reg, "cluster.dispatch.failovers"); got != 1 {
		t.Fatalf("failovers counter %d, want 1", got)
	}
	if got := counterOf(t, reg, "cluster.dispatch.worker_ok"); got != 1 {
		t.Fatalf("worker_ok counter %d, want 1", got)
	}
}

// TestDispatchHedgeWin: a stalled primary is hedged against the next-ranked
// worker after the fixed hedge delay; the hedge wins, the straggler is
// canceled (not charged as a failure), and the body is still byte-identical.
func TestDispatchHedgeWin(t *testing.T) {
	fws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	c, reg := testCoordinator(t, func(cfg *Config) {
		cfg.HedgeAfter = 5 * time.Millisecond
	}, fws...)

	const key = "straggler-campaign"
	primary := byAddr(fws, c.candidates(key)[0].addr)
	primary.setStall(10 * time.Second)

	start := time.Now()
	res, err := c.Dispatch(context.Background(), key, []byte(`{}`))
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("hedge did not preempt the straggler: dispatch took %s", took)
	}
	if string(res.Body) != jobBody(key) {
		t.Fatalf("body %q, want %q", res.Body, jobBody(key))
	}
	if res.Worker == primary.id {
		t.Fatalf("stalled primary %s won; want the hedge worker", primary.id)
	}
	var outcomes []string
	for _, a := range res.Attempts {
		outcomes = append(outcomes, a.Outcome)
	}
	wantOutcomes := []string{"hedge-win", "canceled"}
	if len(outcomes) != 2 || outcomes[0] != wantOutcomes[0] || outcomes[1] != wantOutcomes[1] {
		t.Fatalf("attempt outcomes %v, want %v", outcomes, wantOutcomes)
	}
	if !res.Attempts[0].Hedge {
		t.Fatal("winning attempt not marked as a hedge")
	}
	if got := counterOf(t, reg, "cluster.dispatch.hedged"); got != 1 {
		t.Fatalf("hedged counter %d, want 1", got)
	}
	if got := counterOf(t, reg, "cluster.dispatch.hedge_wins"); got != 1 {
		t.Fatalf("hedge_wins counter %d, want 1", got)
	}
	// The canceled straggler must not trip the primary's breaker.
	if got := counterOf(t, reg, "cluster.breaker.opened"); got != 0 {
		t.Fatalf("breaker opened %d times after a raced cancel, want 0", got)
	}
}

// TestDispatchPermanentRejectionDegradesLocal: a 4xx from a worker means the
// payload, not the worker, is suspect — dispatch stops failing over
// immediately and runs locally, and the rejection is not charged as a breaker
// failure.
func TestDispatchPermanentRejectionDegradesLocal(t *testing.T) {
	fws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	for _, fw := range fws {
		fw.setCode(http.StatusBadRequest)
	}
	c, reg := testCoordinator(t, func(cfg *Config) {
		cfg.Local = func(ctx context.Context, key string, payload []byte) ([]byte, error) {
			return []byte(jobBody(key)), nil
		}
	}, fws...)

	const key = "skewed-campaign"
	res, err := c.Dispatch(context.Background(), key, []byte(`{}`))
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if res.Mode != "local" || string(res.Body) != jobBody(key) {
		t.Fatalf("mode=%s body=%q; want local fallback with identical bytes", res.Mode, res.Body)
	}
	if n := len(res.Attempts); n != 2 || res.Attempts[n-1].Outcome != "local" {
		t.Fatalf("attempts %+v, want [error, local]", res.Attempts)
	}
	// Permanent rejection must short-circuit: exactly one worker touched once.
	if total := fws[0].hits.Load() + fws[1].hits.Load(); total != 1 {
		t.Fatalf("workers saw %d execute requests after a permanent rejection, want 1", total)
	}
	if got := counterOf(t, reg, "cluster.dispatch.failovers"); got != 0 {
		t.Fatalf("failovers counter %d, want 0 (permanent errors skip failover)", got)
	}
	if got := counterOf(t, reg, "cluster.breaker.opened"); got != 0 {
		t.Fatalf("breaker opened on a permanent rejection; rejections are not health signals")
	}
	if got := counterOf(t, reg, "cluster.dispatch.local"); got != 1 {
		t.Fatalf("local counter %d, want 1", got)
	}
}

// TestDispatchNoWorkersDegradesLocal: the never-refuse guarantee — an empty
// pool runs the campaign in-process; without a local fallback it reports a
// clean error.
func TestDispatchNoWorkersDegradesLocal(t *testing.T) {
	c, reg := testCoordinator(t, func(cfg *Config) {
		cfg.Local = func(ctx context.Context, key string, payload []byte) ([]byte, error) {
			return []byte(jobBody(key)), nil
		}
	})
	res, err := c.Dispatch(context.Background(), "lonely-campaign", []byte(`{}`))
	if err != nil {
		t.Fatalf("dispatch with empty pool: %v", err)
	}
	if res.Mode != "local" || res.Worker != "local" {
		t.Fatalf("mode=%s worker=%s, want local/local", res.Mode, res.Worker)
	}
	if string(res.Body) != jobBody("lonely-campaign") {
		t.Fatalf("body %q, want %q", res.Body, jobBody("lonely-campaign"))
	}
	if got := counterOf(t, reg, "cluster.dispatch.local"); got != 1 {
		t.Fatalf("local counter %d, want 1", got)
	}

	noLocal, _ := testCoordinator(t, nil)
	if _, err := noLocal.Dispatch(context.Background(), "k", nil); err == nil {
		t.Fatal("empty pool with nil Local returned no error")
	}
}

// TestDispatchBreakerIsolatesFailingWorker: three straight failures open the
// worker's breaker; the next dispatch never touches it and degrades straight
// to local.
func TestDispatchBreakerIsolatesFailingWorker(t *testing.T) {
	fw := newFakeWorker(t, "w1")
	fw.setCode(http.StatusInternalServerError)
	c, reg := testCoordinator(t, func(cfg *Config) {
		cfg.BreakerThreshold = 3
		cfg.DispatchRounds = 3
		cfg.Local = func(ctx context.Context, key string, payload []byte) ([]byte, error) {
			return []byte(jobBody(key)), nil
		}
	}, fw)

	res, err := c.Dispatch(context.Background(), "doomed-campaign", []byte(`{}`))
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if res.Mode != "local" {
		t.Fatalf("mode %s, want local after exhausting the failing worker", res.Mode)
	}
	if got := fw.hits.Load(); got != 3 {
		t.Fatalf("worker saw %d requests, want DispatchRounds=3", got)
	}
	if got := counterOf(t, reg, "cluster.breaker.opened"); got != 1 {
		t.Fatalf("breaker.opened %d, want 1", got)
	}

	// Second dispatch: the open breaker removes the worker from candidacy —
	// local degradation without a single additional request.
	res, err = c.Dispatch(context.Background(), "doomed-campaign-2", []byte(`{}`))
	if err != nil {
		t.Fatalf("second dispatch: %v", err)
	}
	if res.Mode != "local" {
		t.Fatalf("second dispatch mode %s, want local", res.Mode)
	}
	if got := fw.hits.Load(); got != 3 {
		t.Fatalf("open-breaker worker received traffic: %d requests, want still 3", got)
	}
}

// TestDispatchChaosByteIdentity: under a seeded fault injector (drops,
// delays, duplicates) every campaign still completes and every result is
// byte-identical to the clean-network answer — whichever worker or the local
// path produced it.
func TestDispatchChaosByteIdentity(t *testing.T) {
	fws := []*fakeWorker{newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3")}
	reg := telemetry.NewRegistry()
	inj := NewInjector(NetFaultConfig{
		Seed:          1337,
		DropRate:      0.3,
		DelayRate:     0.3,
		MaxDelay:      5 * time.Millisecond,
		DuplicateRate: 0.2,
		Registry:      reg,
	}, http.DefaultTransport)

	c, _ := testCoordinator(t, func(cfg *Config) {
		cfg.Registry = reg
		cfg.HTTP = &http.Client{Transport: inj}
		cfg.DispatchRounds = 4
		cfg.Local = func(ctx context.Context, key string, payload []byte) ([]byte, error) {
			return []byte(jobBody(key)), nil
		}
	}, fws...)

	modes := map[string]int{}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("chaos-campaign-%d", i)
		res, err := c.Dispatch(context.Background(), key, []byte(`{}`))
		if err != nil {
			t.Fatalf("dispatch %s under chaos: %v", key, err)
		}
		if string(res.Body) != jobBody(key) {
			t.Fatalf("dispatch %s: body %q diverged from golden %q (mode %s, attempts %+v)",
				key, res.Body, jobBody(key), res.Mode, res.Attempts)
		}
		modes[res.Mode]++
	}
	if got := counterOf(t, reg, "cluster.netfault.drops"); got == 0 {
		t.Fatal("chaos run injected zero drops; seed exercises nothing")
	}
	t.Logf("chaos modes: %v, drops=%d delays=%d dups=%d",
		modes,
		counterOf(t, reg, "cluster.netfault.drops"),
		counterOf(t, reg, "cluster.netfault.delays"),
		counterOf(t, reg, "cluster.netfault.duplicates"))
}

// TestHeartbeatEvictsAndRevives: a worker that stops answering heartbeats is
// suspected, then evicted past the deadline, and receives no dispatches until
// its next registration revives it.
func TestHeartbeatEvictsAndRevives(t *testing.T) {
	fw := newFakeWorker(t, "w1")
	c, reg := testCoordinator(t, func(cfg *Config) {
		cfg.HeartbeatInterval = 10 * time.Millisecond
		cfg.HeartbeatTimeout = 100 * time.Millisecond
		cfg.EvictAfter = 40 * time.Millisecond
		cfg.Local = func(ctx context.Context, key string, payload []byte) ([]byte, error) {
			return []byte(jobBody(key)), nil
		}
	}, fw)
	c.Start()

	waitState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			ws := c.Workers()
			if len(ws) == 1 && ws[0].State == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("worker never reached state %q: %+v", want, c.Workers())
	}

	waitState("healthy")
	fw.hs.Close() // the worker dies; probes now fail
	waitState("evicted")
	if got := counterOf(t, reg, "cluster.workers.evicted"); got != 1 {
		t.Fatalf("evicted counter %d, want 1", got)
	}

	// Evicted workers get no traffic: dispatch degrades to local.
	res, err := c.Dispatch(context.Background(), "post-eviction", []byte(`{}`))
	if err != nil {
		t.Fatalf("dispatch after eviction: %v", err)
	}
	if res.Mode != "local" {
		t.Fatalf("dispatch after eviction used mode %s, want local", res.Mode)
	}

	// Re-registration (the worker's periodic self-announce) revives it.
	if err := c.Register("w1", fw.hs.URL); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if got := counterOf(t, reg, "cluster.workers.revived"); got != 1 {
		t.Fatalf("revived counter %d, want 1", got)
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].State != "healthy" {
		t.Fatalf("revived worker state %+v, want healthy", ws)
	}
}

// TestRegisterValidation: worker ids are metric-name segments; junk is
// rejected before it can pollute the registry.
func TestRegisterValidation(t *testing.T) {
	c, _ := testCoordinator(t, nil)
	for _, bad := range []string{"", "has space", "dots.bad", strings.Repeat("x", 65)} {
		if err := c.Register(bad, "http://127.0.0.1:1"); err == nil {
			t.Errorf("Register accepted invalid id %q", bad)
		}
	}
	if err := c.Register("ok-worker_1", ""); err == nil {
		t.Error("Register accepted empty addr")
	}
}
