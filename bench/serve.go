package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"afterimage"
	"afterimage/internal/cluster"
	"afterimage/internal/server"
	"afterimage/internal/store"
	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

// hotSetSize is how many distinct specs serve-mixed re-submits.
const hotSetSize = 16

// serveIntensities is the service workloads' campaign curve.
var serveIntensities = []float64{0, 1, 2}

// serveSpec is the service workloads' campaign: v1-thread, 8 bits,
// intensities {0, 1, 2}. Only the seed varies.
func serveSpec(seed int64) server.CampaignSpec {
	return server.CampaignSpec{Attack: "v1-thread", Seed: seed, Bits: 8, Intensities: serveIntensities}
}

// Hot-set seeds are even and miss seeds odd, so a miss can never hit.
func hotSeed(seed int64, k int) int64  { return 2 * deriveSeed(seed, streamHot, k) }
func missSeed(seed int64, i int) int64 { return 2*deriveSeed(seed, streamMiss, i) + 1 }

// serveInstance is the campaign service behind a loopback listener, with
// its store and checkpoints on the real disk, optionally sharding misses to
// two in-process workers.
type serveInstance struct {
	seed  int64
	mixed bool
	tr    *tracer
	dir   string

	st     *store.Store
	srv    *server.Server
	front  *httptest.Server
	client *http.Client

	coord   *cluster.Coordinator
	workers []*server.Worker
	nodes   []*httptest.Server
	stopReg context.CancelFunc
	regWG   sync.WaitGroup

	// base holds the registries as they stood when the window opened.
	base []telemetry.Snapshot
}

func setupServeMixed(ctx context.Context, e *env) (instance, error) {
	return setupServe(ctx, e, true)
}

func setupServeCluster(ctx context.Context, e *env) (instance, error) {
	return setupServe(ctx, e, false)
}

// setupServe starts the service with the afterimage-serve defaults (4
// concurrent campaigns, queue 8, tenant quota 2). serve-mixed then prefills
// the hot set; serve-cluster starts a coordinator with default dispatch
// settings and heartbeats, two workers that register themselves as
// afterimage-worker does, and runs a few misses so adaptive hedging is armed.
func setupServe(ctx context.Context, e *env, mixed bool) (_ instance, err error) {
	si := &serveInstance{seed: e.seed, mixed: mixed, tr: e.tr, dir: e.dir}
	defer func() {
		if err != nil {
			si.close()
		}
	}()
	reg := telemetry.NewRegistry()
	var fsys vfs.FS
	if si.tr != nil {
		fsys = &timedFS{FS: vfs.OS(), tr: si.tr}
	}
	si.st, _, err = store.OpenWith(store.Options{Dir: filepath.Join(e.dir, "store"), Registry: reg, FS: fsys})
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Store: si.st, FS: fsys, CheckpointDir: filepath.Join(e.dir, "checkpoints"), Registry: reg}
	if !mixed {
		ccfg := cluster.Config{Registry: reg}
		if si.tr != nil {
			ccfg.HTTP = &http.Client{Transport: &timedRT{base: http.DefaultTransport, tr: si.tr}}
		}
		si.coord = cluster.New(ccfg)
		cfg.Cluster = si.coord
	}
	si.srv, err = server.New(cfg)
	if err != nil {
		return nil, err
	}
	si.front = httptest.NewServer(si.srv.Handler())
	// One keep-alive transport with at most one connection per client.
	si.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}

	// The prefill (serve-mixed) or warm-up misses (serve-cluster) are sent
	// by all clients at once, each submitting every clients-th spec.
	var specs []server.CampaignSpec
	if mixed {
		for k := 0; k < hotSetSize; k++ {
			specs = append(specs, serveSpec(hotSeed(si.seed, k)))
		}
	} else {
		if err := si.startWorkers(ctx); err != nil {
			return nil, err
		}
		for k := 0; k < 8; k++ {
			specs = append(specs, serveSpec(2*deriveSeed(si.seed, streamSetup, k)+1))
		}
	}
	err = parallel(e.clients, func(c int) error {
		for k := c; k < len(specs); k += e.clients {
			if err := si.submitExpect(ctx, c, -1, specs[k], "miss"); err != nil {
				return fmt.Errorf("set-up request: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	si.base = si.snapshots()
	return si, nil
}

// startWorkers brings up two workers behind their own listeners and waits
// until the coordinator sees both healthy.
func (si *serveInstance) startWorkers(ctx context.Context) error {
	rctx, cancel := context.WithCancel(context.Background())
	si.stopReg = cancel
	for k := 0; k < 2; k++ {
		id := fmt.Sprintf("worker-%d", k)
		w, err := server.NewWorker(server.WorkerConfig{ID: id, CheckpointDir: filepath.Join(si.dir, id)})
		if err != nil {
			return err
		}
		var h http.Handler = w.Handler()
		if si.tr != nil {
			h = timedWorker(h, si.tr)
		}
		node := httptest.NewServer(h)
		si.workers = append(si.workers, w)
		si.nodes = append(si.nodes, node)
		si.regWG.Add(1)
		go func() {
			defer si.regWG.Done()
			server.RegisterLoop(rctx, nil, si.front.URL, cluster.RegisterRequest{ID: id, Addr: node.URL}, time.Second, nil)
		}()
	}
	si.coord.Start()
	deadline := time.Now().Add(10 * time.Second)
	for si.coord.HealthyWorkers() < len(si.workers) {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("workers did not register within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// plan is operation i's spec and the cache outcome it must get: on
// serve-mixed every fifth operation is a fresh miss and the rest re-submit a
// hot-set spec; on serve-cluster every operation is a fresh miss.
func (si *serveInstance) plan(i int) (server.CampaignSpec, string) {
	if si.mixed && i%5 != 4 {
		return serveSpec(hotSeed(si.seed, int(mix(uint64(si.seed), uint64(i))%hotSetSize))), "hit"
	}
	return serveSpec(missSeed(si.seed, i)), "miss"
}

// submit POSTs one campaign as tenant client-c and returns the body and the
// cache outcome. Anything but 200 is an error: 429 and 5xx count as failed
// operations, never as retries.
func (si *serveInstance) submit(ctx context.Context, c, i int, spec server.CampaignSpec) ([]byte, string, error) {
	spec.Tenant = fmt.Sprintf("client-%d", c)
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, si.front.URL+"/v1/campaigns", bytes.NewReader(raw))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.HeaderCampaignID, "bench-op-"+strconv.Itoa(i))
	resp, err := si.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, resp.Header.Get(server.HeaderCache), nil
}

func (si *serveInstance) submitExpect(ctx context.Context, c, i int, spec server.CampaignSpec, want string) error {
	_, got, err := si.submit(ctx, c, i, spec)
	if err == nil && got != want {
		err = fmt.Errorf("cache outcome %q, want %q", got, want)
	}
	return err
}

func (si *serveInstance) do(ctx context.Context, c, i int) (opResult, error) {
	spec, class := si.plan(i)
	root := -1
	if si.tr != nil {
		root = si.tr.root("serve."+class, i, c)
		si.tr.bindKey(spec.Normalize().Key(), root)
	}
	body, got, err := si.submit(ctx, c, i, spec)
	if si.tr != nil {
		si.tr.end(root)
	}
	if err != nil {
		return opResult{}, err
	}
	if got != class {
		return opResult{}, fmt.Errorf("cache outcome %q, want %q", got, class)
	}
	res := opResult{body: body, class: class}
	if class == "miss" {
		var sr afterimage.SweepResult
		if err := json.Unmarshal(body, &sr); err != nil {
			return opResult{}, fmt.Errorf("decode result: %w", err)
		}
		res.cycles = sweepCycles(sr)
	}
	return res, nil
}

// expect computes operation i's result with the library alone: no HTTP, no
// admission, no store, no cluster.
func (si *serveInstance) expect(ctx context.Context, i int) ([]byte, error) {
	spec, _ := si.plan(i)
	body, _, err := campaignSpec{seed: spec.Seed, opts: afterimage.SweepOptions{
		Attack: afterimage.SweepV1Thread, Bits: spec.Bits, Intensities: spec.Intensities,
	}}.run(ctx)
	return body, err
}

func (si *serveInstance) close() error {
	if si.stopReg != nil {
		si.stopReg()
		si.regWG.Wait()
	}
	if si.coord != nil {
		si.coord.Stop()
	}
	var first error
	if si.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		first = si.srv.Drain(ctx)
		for _, w := range si.workers {
			if err := w.Drain(ctx); err != nil && first == nil {
				first = err
			}
		}
		cancel()
	}
	if si.front != nil {
		si.front.Close()
	}
	for _, n := range si.nodes {
		n.Close()
	}
	if si.client != nil {
		si.client.CloseIdleConnections()
	}
	http.DefaultClient.CloseIdleConnections()
	if si.st != nil {
		si.st.Close()
	}
	return first
}

// snapshots reads the server's registry and each worker's.
func (si *serveInstance) snapshots() []telemetry.Snapshot {
	out := []telemetry.Snapshot{si.srv.Registry().Snapshot()}
	for _, w := range si.workers {
		out = append(out, w.Registry().Snapshot())
	}
	return out
}

// layers derives the service's per-layer metrics from the window's spans and
// registry deltas, then times the hit path, the handler and the store
// directly while no client runs.
func (si *serveInstance) layers(ctx context.Context, lr *loopResult) (map[string]float64, []string, error) {
	ls := si.tr.layers()
	now := si.snapshots()
	counter := func(k int, name string) float64 {
		return float64(now[k].Counters[name] - si.base[k].Counters[name])
	}
	histMeanUS := func(name string) float64 {
		var sum, n uint64
		for k := range now {
			h1, h0 := now[k].Histograms[name], si.base[k].Histograms[name]
			sum += h1.Sum - h0.Sum
			n += h1.Count - h0.Count
		}
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n)
	}
	stat := func(name string) (count int, meanMs, selfMs float64) {
		l, ok := ls[name]
		if !ok || l.count == 0 {
			return 0, 0, 0
		}
		return l.count, ms(l.total) / float64(l.count), ms(l.self) / float64(l.count)
	}
	hits, misses := float64(len(lr.byClass["hit"])), float64(len(lr.byClass["miss"]))

	v := map[string]float64{
		"serve.hit_ms.p50":     percentile(lr.byClass["hit"], 0.50),
		"serve.hit_ms.p99":     percentile(lr.byClass["hit"], 0.99),
		"serve.miss_ms.p50":    percentile(lr.byClass["miss"], 0.50),
		"serve.miss_ms.p99":    percentile(lr.byClass["miss"], 0.99),
		"server.queue.wait.us": histMeanUS("server.queue.wait.us"),
		"store.read.us":        histMeanUS("store.read.us"),
		"store.write.us":       histMeanUS("store.write.us"),
		"runner.attempt.us":    histMeanUS("runner.attempt.us"),
	}
	if h, m := counter(0, "store.hits"), counter(0, "store.misses"); h+m > 0 {
		v["store.hit_frac"] = h / (h + m)
	}
	// Directory syncs name no campaign, so per-miss counts take every call of
	// the kind; only misses write. Reads happen on both paths and are
	// counted under hit requests only.
	for _, op := range fsOpNames {
		n, mean, _ := stat("vfs." + op)
		v["vfs."+op+".us"] = mean * 1000
		switch {
		case op == "read" && hits > 0:
			v["vfs.read.per_hit"] = float64(si.tr.countUnder("vfs.read", "serve.hit")) / hits
		case op != "read" && misses > 0:
			v["vfs."+op+".per_miss"] = float64(n) / misses
		}
	}
	if si.coord != nil {
		attempts, rtt, overhead := stat("cluster.dispatch")
		_, exec, _ := stat("worker.execute")
		v["cluster.dispatch.rtt.ms"] = rtt
		v["worker.execute.ms"] = exec
		v["cluster.dispatch.overhead.ms"] = overhead
		if jobs := counter(0, "cluster.dispatch.requests"); jobs > 0 {
			v["cluster.attempts_per_job"] = float64(attempts) / jobs
			v["cluster.failovers_per_job"] = counter(0, "cluster.dispatch.failovers") / jobs
		}
		if attempts > 0 {
			v["cluster.hedge.waste_frac"] = (float64(attempts) - counter(0, "cluster.dispatch.worker_ok")) / float64(attempts)
		}
		var total, busiest float64
		for k := 1; k < len(now); k++ {
			n := counter(k, "worker.jobs.executed")
			total += n
			busiest = max(busiest, n)
		}
		if total > 0 {
			v["cluster.worker.share_max"] = busiest / total
		}
		v["cluster.heartbeat.per_s"] = counter(0, "cluster.heartbeat.probes") / lr.wall.Seconds()
	}

	si.tr.pause()
	defer si.tr.resume()
	if err := si.directHits(ctx, v); err != nil {
		return nil, nil, err
	}
	return v, nil, nil
}

// directHits times, while nothing else runs, a cache hit over loopback and
// the same hit through Server.Handler() into a ResponseRecorder with no
// socket; the difference is the HTTP stack's share. It then times Put and
// Get on a bench-only store holding the same result payloads.
func (si *serveInstance) directHits(ctx context.Context, v map[string]float64) error {
	var specs []server.CampaignSpec
	for k := 0; k < hotSetSize; k++ {
		if si.mixed {
			specs = append(specs, serveSpec(hotSeed(si.seed, k)))
		} else {
			specs = append(specs, serveSpec(missSeed(si.seed, k)))
		}
	}
	// Submitting each spec once caches the serve-cluster ones a short window
	// did not reach.
	bodies := make([][]byte, len(specs))
	for k, spec := range specs {
		body, _, err := si.submit(ctx, 0, -1, spec)
		if err != nil {
			return fmt.Errorf("cache hit set: %w", err)
		}
		bodies[k] = body
	}
	const rounds = 200
	h := si.srv.Handler()
	loop := make([]float64, 0, rounds)
	direct := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		spec := specs[r%len(specs)]
		t0 := time.Now()
		_, got, err := si.submit(ctx, 0, -1, spec)
		loop = append(loop, float64(time.Since(t0).Microseconds()))
		if err != nil || got != "hit" {
			return fmt.Errorf("loopback hit: outcome %q, %v", got, err)
		}

		spec.Tenant = "client-0"
		raw, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		t0 = time.Now()
		h.ServeHTTP(rec, req)
		direct = append(direct, float64(time.Since(t0).Microseconds()))
		if rec.Code != http.StatusOK || rec.Header().Get(server.HeaderCache) != "hit" {
			return fmt.Errorf("direct handler hit: status %d", rec.Code)
		}
	}
	v["server.handler.hit.us"] = median(direct)
	v["net.http.hit.us"] = median(loop) - median(direct)

	st, _, err := store.OpenWith(store.Options{Dir: filepath.Join(si.dir, "bench-store")})
	if err != nil {
		return err
	}
	defer st.Close()
	puts := make([]float64, 0, len(specs))
	gets := make([]float64, 0, rounds)
	for k, spec := range specs {
		key := spec.Normalize().Key()
		t0 := time.Now()
		if err := st.Put(key, bodies[k]); err != nil {
			return fmt.Errorf("bench store put: %w", err)
		}
		puts = append(puts, float64(time.Since(t0).Microseconds()))
	}
	for r := 0; r < rounds; r++ {
		k := r % len(specs)
		t0 := time.Now()
		body, ok := st.Get(specs[k].Normalize().Key())
		gets = append(gets, float64(time.Since(t0).Microseconds()))
		if !ok || !bytes.Equal(body, bodies[k]) {
			return fmt.Errorf("bench store get returned other bytes")
		}
	}
	v["store.put.us"] = median(puts)
	v["store.get.us"] = median(gets)
	return nil
}

// The timed filesystem operations, in metric order.
var fsOpNames = []string{"create", "write", "sync", "syncdir", "rename", "read"}

// timedFS wraps the filesystem the store and the checkpoint writer use and
// records a span per call, nested under the request whose campaign key
// appears in the path.
type timedFS struct {
	vfs.FS
	tr *tracer
}

func (f *timedFS) timed(op, path string, fn func() error) error {
	s := f.tr.begin(f.tr.keySpan(keyInPath(path)), "vfs."+op)
	err := fn()
	f.tr.end(s)
	return err
}

func (f *timedFS) Create(path string) (vfs.File, error) {
	var file vfs.File
	err := f.timed("create", path, func() (err error) {
		file, err = f.FS.Create(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f, path: path}, nil
}

func (f *timedFS) ReadFile(path string) ([]byte, error) {
	var b []byte
	err := f.timed("read", path, func() (err error) {
		b, err = f.FS.ReadFile(path)
		return err
	})
	return b, err
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	return f.timed("rename", newpath, func() error { return f.FS.Rename(oldpath, newpath) })
}

func (f *timedFS) SyncDir(path string) error {
	return f.timed("syncdir", path, func() error { return f.FS.SyncDir(path) })
}

type timedFile struct {
	vfs.File
	fs   *timedFS
	path string
}

func (t *timedFile) Write(p []byte) (n int, err error) {
	err = t.fs.timed("write", t.path, func() (err error) {
		n, err = t.File.Write(p)
		return err
	})
	return n, err
}

func (t *timedFile) Sync() error {
	return t.fs.timed("sync", t.path, t.File.Sync)
}

// keyInPath extracts the 64-hex campaign key from a store entry or
// checkpoint file name, or returns "".
func keyInPath(path string) string {
	base := filepath.Base(path)
	if len(base) >= 64 && store.ValidKey(base[:64]) {
		return base[:64]
	}
	return ""
}

// spanHeader carries a dispatch span's id to the worker wrapper, so the
// worker's execution nests under the dispatch that sent it.
const spanHeader = "X-Bench-Span"

// timedRT is the coordinator's transport on a traced run: it records each
// job dispatch from request to the end of the response body.
type timedRT struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *timedRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != cluster.ExecutePath {
		return t.base.RoundTrip(r)
	}
	s := t.tr.begin(t.tr.keySpan(r.Header.Get(cluster.HeaderJobKey)), "cluster.dispatch")
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.Itoa(s))
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.end(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.end(s) }}
	return resp, nil
}

// spanBody ends a span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// timedWorker records a span around each job a worker executes.
func timedWorker(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != cluster.ExecutePath {
			h.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		s := tr.begin(parent, "worker.execute")
		h.ServeHTTP(w, r)
		tr.end(s)
	})
}
