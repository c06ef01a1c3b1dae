package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"afterimage/internal/client"
	"afterimage/internal/server"
	"afterimage/internal/store"
	"afterimage/internal/telemetry"
)

// tinySpec is the campaign every handler test submits: two points, four
// bits — a few milliseconds of simulation.
func tinySpec(seed int64) server.CampaignSpec {
	return server.CampaignSpec{
		Tenant:      "t1",
		Attack:      "v1-thread",
		Seed:        seed,
		Bits:        4,
		Intensities: []float64{0, 1},
	}
}

// env is one running service over its own store/checkpoint directories.
type env struct {
	srv *server.Server
	hs  *httptest.Server
	cl  *client.Client
	reg *telemetry.Registry
	st  *store.Store

	storeDir, ckptDir string
}

// startEnv boots a service over the given directories (tests that simulate
// restarts pass the same dirs twice).
func startEnv(t *testing.T, storeDir, ckptDir string, mut func(*server.Config)) *env {
	t.Helper()
	reg := telemetry.NewRegistry()
	st, _, err := store.Open(storeDir, reg)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	cfg := server.Config{
		Store:         st,
		CheckpointDir: ckptDir,
		Registry:      reg,
		RetryAfter:    time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return &env{srv: srv, hs: hs, cl: client.New(hs.URL), reg: reg, st: st,
		storeDir: storeDir, ckptDir: ckptDir}
}

func newEnv(t *testing.T, mut func(*server.Config)) *env {
	dir := t.TempDir()
	return startEnv(t, filepath.Join(dir, "store"), filepath.Join(dir, "ckpt"), mut)
}

func (e *env) counter(t *testing.T, name string) uint64 {
	t.Helper()
	v, _ := e.reg.Snapshot().Get(name)
	return v
}

// waitCounter polls a registry counter until it reaches want.
func (e *env) waitCounter(t *testing.T, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if e.counter(t, name) >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("counter %s stuck at %d, want >= %d", name, e.counter(t, name), want)
}

// gated installs a test gate that parks every campaign until release is
// closed, reporting each started key on the returned channel.
func gated(e *env) (started chan string, release chan struct{}) {
	started = make(chan string, 16)
	release = make(chan struct{})
	e.srv.SetTestGate(func(ctx context.Context, key string) error {
		started <- key
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	return started, release
}

func TestSpecNormalizeKeyCanonical(t *testing.T) {
	implicit := server.CampaignSpec{Attack: "v1-thread"}.Normalize()
	explicit := server.CampaignSpec{
		Tenant: "someone-else", Attack: "v1-thread", Model: "coffeelake",
		Bits: 32, Intensities: []float64{0, 0.5, 1, 2, 4}, TimeoutMs: 5000,
	}.Normalize()
	if implicit.Key() != explicit.Key() {
		t.Fatalf("defaults do not canonicalise: %s vs %s", implicit.Key(), explicit.Key())
	}
	if !store.ValidKey(implicit.Key()) {
		t.Fatalf("Key %q is not a valid store key", implicit.Key())
	}
	seeded := implicit
	seeded.Seed = 7
	if seeded.Key() == implicit.Key() {
		t.Fatal("different seeds share a key")
	}
}

// TestSubmitValidationErrors: malformed and out-of-range specs are rejected
// with 400 and the typed OptionError structure (struct/field/constraint).
func TestSubmitValidationErrors(t *testing.T) {
	e := newEnv(t, nil)
	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(e.hs.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("non-JSON error body: %v", err)
		}
		return resp.StatusCode, m
	}

	if code, m := post(`{not json`); code != 400 || m["error"] == "" {
		t.Fatalf("malformed JSON: got %d %v", code, m)
	}
	if code, m := post(`{"attack": "v9-quantum"}`); code != 400 ||
		m["field"] != "Attack" || m["struct"] != "CampaignSpec" {
		t.Fatalf("unknown attack: got %d %v", code, m)
	}
	if code, m := post(`{"attack": "v1-thread", "model": "pentium"}`); code != 400 || m["field"] != "Model" {
		t.Fatalf("unknown model: got %d %v", code, m)
	}
	if code, m := post(`{"attack": "v1-thread", "bits": 99999}`); code != 400 || m["field"] != "Bits" {
		t.Fatalf("oversized bits: got %d %v", code, m)
	}
	if code, m := post(`{"attack": "v1-thread", "intensities": [0, -1]}`); code != 400 ||
		m["field"] != "Intensities[1]" {
		t.Fatalf("negative intensity: got %d %v", code, m)
	}
	if code, m := post(`{"attack": "v1-thread", "tenant": "no spaces allowed"}`); code != 400 {
		t.Fatalf("bad tenant: got %d %v", code, m)
	}
	if code, m := post(`{"attack": "v1-thread", "surprise": 1}`); code != 400 {
		t.Fatalf("unknown field: got %d %v", code, m)
	}
	if got := e.counter(t, "server.requests.invalid"); got != 7 {
		t.Fatalf("server.requests.invalid = %d, want 7", got)
	}
	if got := e.counter(t, "server.campaigns.executed"); got != 0 {
		t.Fatalf("invalid specs executed %d campaigns", got)
	}
}

// TestSubmitThenCacheHit: the second identical submission is a store hit
// with byte-identical body and no second execution.
func TestSubmitThenCacheHit(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	first, err := e.cl.Submit(ctx, tinySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != "miss" {
		t.Fatalf("first submission source %q, want miss", first.Source)
	}
	if !json.Valid(first.Body) {
		t.Fatalf("result is not JSON: %.100s", first.Body)
	}
	second, err := e.cl.Submit(ctx, tinySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "hit" {
		t.Fatalf("second submission source %q, want hit", second.Source)
	}
	if !bytes.Equal(first.Body, second.Body) {
		t.Fatalf("cache hit not byte-identical:\n%s\nvs\n%s", first.Body, second.Body)
	}
	if got := e.counter(t, "server.campaigns.executed"); got != 1 {
		t.Fatalf("executed %d campaigns, want 1", got)
	}
	if got := e.counter(t, "store.hits"); got != 1 {
		t.Fatalf("store.hits = %d, want 1", got)
	}
	// A spec spelling the defaults differently hits the same entry.
	alias := tinySpec(5)
	alias.Tenant = "t2"
	alias.Model = "coffeelake"
	third, err := e.cl.Submit(ctx, alias)
	if err != nil {
		t.Fatal(err)
	}
	if third.Source != "hit" || !bytes.Equal(first.Body, third.Body) {
		t.Fatalf("cross-tenant canonical hit failed: source=%s", third.Source)
	}
}

// TestMaxCyclesDegradesOverBudgetPoint: a spec's max_cycles arms every
// point lab's cycle-budget watchdog, so a budget only the high-intensity
// point overruns degrades that point, after its retries, with fault_kind
// cycle-budget, and leaves the clean point whole.
func TestMaxCyclesDegradesOverBudgetPoint(t *testing.T) {
	e := newEnv(t, nil)
	spec := tinySpec(5)
	// Intensity 0 needs about 89k cycles; intensity 16 needs 143k to 193k
	// on each of its three salted attempts.
	spec.Intensities = []float64{0, 16}
	spec.MaxCycles = 120_000
	res, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var curve struct {
		Points []struct {
			Err       string `json:"err"`
			FaultKind string `json:"fault_kind"`
			Degraded  bool   `json:"degraded"`
		} `json:"points"`
	}
	if err := json.Unmarshal(res.Body, &curve); err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 2 {
		t.Fatalf("got %d points, want 2: %s", len(curve.Points), res.Body)
	}
	if clean := curve.Points[0]; clean.Degraded || clean.Err != "" {
		t.Errorf("clean point degraded: %+v", clean)
	}
	if stormy := curve.Points[1]; !stormy.Degraded || stormy.FaultKind != "cycle-budget" {
		t.Errorf("over-budget point %+v, want degraded with fault kind cycle-budget", stormy)
	}
}

// TestSingleFlightDedup: N concurrent identical submissions collapse onto
// one execution; everyone receives byte-identical results.
func TestSingleFlightDedup(t *testing.T) {
	e := newEnv(t, nil)
	started, release := gated(e)

	const n = 6
	var wg sync.WaitGroup
	results := make([]*client.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.cl.Submit(context.Background(), tinySpec(11))
		}(i)
	}
	<-started
	// All five duplicates must have joined the flight before it resumes.
	e.waitCounter(t, "server.dedup.joined", n-1)
	close(release)
	wg.Wait()

	sources := map[string]int{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i].Body, results[0].Body) {
			t.Fatalf("request %d body diverged", i)
		}
		sources[results[i].Source]++
	}
	if sources["miss"] != 1 || sources["join"] != n-1 {
		t.Fatalf("sources = %v, want 1 miss + %d join", sources, n-1)
	}
	if got := e.counter(t, "server.campaigns.executed"); got != 1 {
		t.Fatalf("executed %d campaigns for %d identical requests", got, n)
	}
}

// TestTenantQuotaRejectionRetryAfter: a tenant at its quota is told 429
// with a Retry-After hint; other tenants are unaffected.
func TestTenantQuotaRejectionRetryAfter(t *testing.T) {
	e := newEnv(t, func(c *server.Config) { c.TenantQuota = 1; c.MaxConcurrent = 4 })
	started, release := gated(e)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.cl.Submit(context.Background(), tinySpec(21)); err != nil {
			t.Errorf("campaign A: %v", err)
		}
	}()
	<-started // A holds t1's only slot

	_, err := e.cl.Submit(context.Background(), tinySpec(22))
	var re *client.RetryableError
	if !errors.As(err, &re) || re.Status != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: got %v, want 429", err)
	}
	if re.RetryAfter <= 0 {
		t.Fatalf("429 without a Retry-After hint: %+v", re)
	}
	if got := e.counter(t, "server.admission.quota_rejected"); got != 1 {
		t.Fatalf("quota_rejected = %d, want 1", got)
	}

	// A different tenant is admitted immediately.
	other := tinySpec(23)
	other.Tenant = "t2"
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.cl.Submit(context.Background(), other); err != nil {
			t.Errorf("tenant t2: %v", err)
		}
	}()
	<-started
	close(release) // unparks both held campaigns
	wg.Wait()

	// Per-tenant counters landed in the shared namespace.
	if got := e.counter(t, "server.tenant.t1.requests"); got < 2 {
		t.Fatalf("server.tenant.t1.requests = %d, want >= 2", got)
	}
	if got := e.counter(t, "server.tenant.t2.requests"); got != 1 {
		t.Fatalf("server.tenant.t2.requests = %d, want 1", got)
	}
}

// TestOverloadShedsWithRetryAfter: with one execution slot and a one-deep
// queue, a third distinct campaign is shed with 429 instead of queueing.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	e := newEnv(t, func(c *server.Config) {
		c.MaxConcurrent = 1
		c.QueueDepth = 1
		c.TenantQuota = 10
	})
	started, release := gated(e)

	var wg sync.WaitGroup
	for _, seed := range []int64{31, 32} {
		seed := seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.cl.Submit(context.Background(), tinySpec(seed)); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}()
	}
	<-started // seed A runs; seed B is parked in the admission queue
	e.waitCounter(t, "server.admission.admitted", 1)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if e.reg.Snapshot().Gauges["server.admission.queued"] > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err := e.cl.Submit(context.Background(), tinySpec(33))
	var re *client.RetryableError
	if !errors.As(err, &re) || re.Status != http.StatusTooManyRequests || re.RetryAfter <= 0 {
		t.Fatalf("overload submit: got %v, want 429 + Retry-After", err)
	}
	if got := e.counter(t, "server.admission.shed"); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}

	close(release)
	<-started // B admitted once A's slot frees
	wg.Wait()

	// The shed campaign succeeds on retry once load clears.
	res, err := e.cl.SubmitWait(context.Background(), tinySpec(33), 10)
	if err != nil {
		t.Fatalf("retry after shed: %v", err)
	}
	if res.Source != "miss" {
		t.Fatalf("retry source %q, want miss", res.Source)
	}
}

// TestClientCancelReleasesSlot: a canceled request abandons its campaign,
// which cancels the execution and frees the tenant's slot for other work.
func TestClientCancelReleasesSlot(t *testing.T) {
	e := newEnv(t, func(c *server.Config) { c.TenantQuota = 1 })
	started, release := gated(e)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.cl.Submit(ctx, tinySpec(41))
		errc <- err
	}()
	<-started
	cancel() // the only waiter walks away mid-campaign
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submit returned %v", err)
	}

	// The abandoned flight unwinds: its slot releases and the next campaign
	// for the same tenant is admitted.
	e.waitCounter(t, "server.campaigns.canceled", 1)
	close(release)
	done := make(chan struct{})
	go func() {
		if _, err := e.cl.SubmitWait(context.Background(), tinySpec(42), 20); err != nil {
			t.Errorf("post-cancel submit: %v", err)
		}
		close(done)
	}()
	<-started
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("slot never released after client cancel")
	}
	if got := e.counter(t, "store.writes"); got != 1 {
		t.Fatalf("store.writes = %d, want 1 (canceled campaign must not cache)", got)
	}
}

// TestStatusAndEvents: GET reports 404 → 202 (in flight) → 200 (cached),
// and the SSE stream carries started/point/done events.
func TestStatusAndEvents(t *testing.T) {
	e := newEnv(t, nil)
	started, release := gated(e)
	spec := tinySpec(51)
	key := spec.Normalize().Key()

	if _, ok, err := e.cl.Get(context.Background(), key); err != nil || ok {
		t.Fatalf("unsubmitted campaign: ok=%v err=%v, want miss", ok, err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := e.cl.Submit(context.Background(), spec)
		errc <- err
	}()
	<-started

	// In flight: 202 with a progress body.
	resp, err := http.Get(e.hs.URL + "/v1/campaigns/" + key)
	if err != nil {
		t.Fatal(err)
	}
	var ev server.ProgressEvent
	json.NewDecoder(resp.Body).Decode(&ev)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || (ev.Type != "queued" && ev.Type != "started") {
		t.Fatalf("in-flight GET: %d %+v, want 202 with progress state", resp.StatusCode, ev)
	}

	// Subscribe, then let the campaign finish: the stream must deliver the
	// replayed state, every point, and the terminal done.
	evc := make(chan []server.ProgressEvent, 1)
	go func() {
		var got []server.ProgressEvent
		e.cl.Events(context.Background(), key, func(ev server.ProgressEvent) bool {
			got = append(got, ev)
			return ev.Type != "done" && ev.Type != "error"
		})
		evc <- got
	}()
	time.Sleep(50 * time.Millisecond) // let the subscription attach
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	var events []server.ProgressEvent
	select {
	case events = <-evc:
	case <-time.After(15 * time.Second):
		t.Fatal("SSE stream never terminated")
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Type]++
	}
	if kinds["done"] != 1 || kinds["point"] < 1 {
		t.Fatalf("SSE events %v: want >=1 point and exactly 1 done", kinds)
	}

	// Cached now: 200 with the stored body; a late subscriber gets a single
	// cached done event.
	if res, ok, err := e.cl.Get(context.Background(), key); err != nil || !ok || res.Source != "hit" {
		t.Fatalf("cached GET failed: ok=%v err=%v", ok, err)
	}
	var late []server.ProgressEvent
	if err := e.cl.Events(context.Background(), key, func(ev server.ProgressEvent) bool {
		late = append(late, ev)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if len(late) != 1 || late[0].Type != "done" || !late[0].Cached {
		t.Fatalf("late subscriber events = %+v, want one cached done", late)
	}
}

// TestMetricsEndpoint: /metrics exposes the runner.*, server.*, and
// store.* counters and histograms of the one shared registry as Prometheus
// families.
func TestMetricsEndpoint(t *testing.T) {
	e := newEnv(t, nil)
	if _, err := e.cl.Submit(context.Background(), tinySpec(61)); err != nil {
		t.Fatal(err)
	}
	text, err := e.cl.Prometheus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"afterimage_server_requests_total", "afterimage_server_campaigns_executed_total",
		"afterimage_server_cache_misses_total", "afterimage_runner_jobs_completed_total",
		"afterimage_runner_checkpoint_writes_total", "afterimage_runner_checkpoint_us_count",
		"afterimage_store_writes_total",
		`afterimage_server_tenant_requests_total{tenant="t1"}`,
	} {
		if !strings.Contains(text, "\n"+family+" ") {
			t.Errorf("/metrics missing %s", family)
		}
	}
	// And a health check for completeness.
	resp, err := http.Get(e.hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	json.NewDecoder(resp.Body).Decode(&h)
	if resp.StatusCode != 200 || h["status"] != "ok" || h["draining"] != false {
		t.Fatalf("healthz: %d %v", resp.StatusCode, h)
	}
}

// TestPerRequestDeadline: a spec deadline expires mid-campaign, surfaces as
// 504 + Retry-After, checkpoints progress, and a later retry completes with
// bytes identical to an undisturbed run.
func TestPerRequestDeadline(t *testing.T) {
	dir := t.TempDir()
	golden := func() []byte {
		e := newEnv(t, nil)
		res, err := e.cl.Submit(context.Background(), tinySpec(71))
		if err != nil {
			t.Fatal(err)
		}
		return res.Body
	}()

	e := startEnv(t, filepath.Join(dir, "store"), filepath.Join(dir, "ckpt"), nil)
	block := make(chan struct{})
	var once sync.Once
	e.srv.SetTestGate(func(ctx context.Context, key string) error {
		// First attempt parks until its deadline kills it; retries pass.
		var parked bool
		once.Do(func() {
			parked = true
			<-ctx.Done()
			close(block)
		})
		if parked {
			return ctx.Err()
		}
		return nil
	})
	spec := tinySpec(71)
	spec.TimeoutMs = 100
	_, err := e.cl.Submit(context.Background(), spec)
	var re *client.RetryableError
	if !errors.As(err, &re) || re.Status != http.StatusGatewayTimeout {
		t.Fatalf("deadline submit: got %v, want 504", err)
	}
	<-block

	spec.TimeoutMs = 0
	res, err := e.cl.SubmitWait(context.Background(), spec, 10)
	if err != nil {
		t.Fatalf("retry after deadline: %v", err)
	}
	if !bytes.Equal(res.Body, golden) {
		t.Fatalf("deadline-interrupted campaign diverged from golden:\n%s\nvs\n%s", res.Body, golden)
	}
}

// TestDrainRejectsNewServesCached: a draining server refuses fresh work with
// 503 + Retry-After but keeps serving cache hits.
func TestDrainRejectsNewServesCached(t *testing.T) {
	e := newEnv(t, nil)
	first, err := e.cl.Submit(context.Background(), tinySpec(81))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if !e.srv.Draining() {
		t.Fatal("Draining() false after Drain")
	}

	hit, err := e.cl.Submit(context.Background(), tinySpec(81))
	if err != nil || hit.Source != "hit" || !bytes.Equal(hit.Body, first.Body) {
		t.Fatalf("cache hit during drain failed: %v %+v", err, hit)
	}
	_, err = e.cl.Submit(context.Background(), tinySpec(82))
	var re *client.RetryableError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable || re.RetryAfter <= 0 {
		t.Fatalf("fresh work during drain: got %v, want 503 + Retry-After", err)
	}
	if got := e.counter(t, "server.drain.rejected"); got != 1 {
		t.Fatalf("drain.rejected = %d, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := server.New(server.Config{}); err == nil {
		t.Fatal("New accepted a nil store")
	}
	st, _, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.New(server.Config{Store: st}); err == nil {
		t.Fatal("New accepted an empty checkpoint dir")
	}
}
