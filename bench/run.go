package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"afterimage/internal/telemetry"
)

// config is one run's settings.
type config struct {
	seed     int64
	window   time.Duration
	trace    bool
	traceOut string
	// workdir holds the run's private directory for stores and checkpoints.
	workdir string
	// clients is the closed loop's width: each client sends its next
	// operation only when the previous one has returned.
	clients int
	// setups is how many times the workload is set up; setup_s is the median.
	setups int
	// verify is how many results are recomputed in-process after the window.
	verify      int
	writeGolden string
}

// report is a finished run.
type report struct {
	result
	samples map[string]int
	// raw holds an untraced run's timing metrics as wall time, before the
	// host-speed adjustment, the median host speed and the median probe
	// readings.
	raw map[string]float64
}

// opResult is what one operation hands back to the load loop.
type opResult struct {
	// body is the result bytes the correctness gate hashes.
	body []byte
	// class is "campaign", "hit" or "miss".
	class string
	// cycles is the simulated time this operation computed (0 for a hit).
	cycles uint64
}

// instance is one set-up workload, ready to take operations.
type instance interface {
	// do runs operation i on behalf of client c. An error counts the
	// operation as failed.
	do(ctx context.Context, c, i int) (opResult, error)
	// expect recomputes operation i's result bytes in-process, on a path
	// that shares nothing with the measured one but the simulator.
	expect(ctx context.Context, i int) ([]byte, error)
	// layers reports a traced run's per-layer metrics after the window; it
	// may take extra direct measurements. Problems it returns make the run
	// incorrect.
	layers(ctx context.Context, lr *loopResult) (map[string]float64, []string, error)
	close() error
}

// workload is one traffic mix.
type workload struct {
	name, why string
	setup     func(ctx context.Context, e *env) (instance, error)
}

// env is what a workload's set-up gets.
type env struct {
	seed int64
	// dir is a fresh directory for the instance's stores and checkpoints.
	dir string
	// tr is nil on untraced runs.
	tr *tracer
	// clients is the load's width; set-up work runs on as many goroutines,
	// in the shape the window will have.
	clients int
}

// parallel runs fn(0..n-1) concurrently and returns the first error.
func parallel(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

var workloads = []workload{
	{"campaign-warm", "in-process sweeps with a 400k-load warmup: the simulator's load path dominates", setupCampaignWarm},
	{"campaign-points", "in-process 20-point sweeps with no warmup over all four attacks: per-point fork, audit and hash dominate", setupCampaignPoints},
	{"serve-mixed", "HTTP service, 80% cache hits from a 16-spec hot set and 20% fresh misses: HTTP, admission and the store", setupServeMixed},
	{"serve-cluster", "HTTP service sharding every request, all misses, to two workers: rendezvous, hedging and the worker hop", setupServeCluster},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run sets the workload up, drives it for the window, checks its results and
// computes the metrics.
func run(ctx context.Context, w workload, cfg config) (report, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return report{}, fmt.Errorf("create work dir: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-"+w.name+"-")
	if err != nil {
		return report{}, fmt.Errorf("create run dir: %w", err)
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	hp, err := newHostProbe(cfg.clients)
	if err != nil {
		return report{}, err
	}
	defer hp.close()
	// Set up several times and keep the last instance: one set-up is a
	// single sample of a noisy host. Each set-up is timed between two host
	// probes, like a slice of the load.
	var inst instance
	setupS := make([]float64, 0, cfg.setups)
	rawSetupS := make([]float64, 0, cfg.setups)
	for k := 0; k < cfg.setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return report{}, fmt.Errorf("close set-up %d: %w", k-1, err)
			}
		}
		e := &env{seed: cfg.seed, dir: filepath.Join(dir, fmt.Sprint(k)), tr: tr, clients: cfg.clients}
		p0 := hp.measure()
		t0 := time.Now()
		inst, err = w.setup(ctx, e)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		rawSetupS = append(rawSetupS, d)
		setupS = append(setupS, d*hostSpeed(p0, hp.measure()))
	}
	defer inst.close()
	if tr != nil {
		tr.reset()
	}

	lr := runLoop(ctx, inst, hp, cfg)
	problems := lr.errs
	bad, err := verify(ctx, w.name, inst, lr, cfg)
	if err != nil {
		return report{}, err
	}
	problems = append(problems, bad...)

	rep := report{result: result{Attempted: lr.attempted, Failed: lr.failed + len(bad)}, samples: map[string]int{}}
	if lr.ok == 0 {
		problems = append(problems, "no operation completed in the window")
	}
	if cfg.trace {
		vals, lp, err := inst.layers(ctx, lr)
		if err != nil {
			return report{}, fmt.Errorf("per-layer metrics: %w", err)
		}
		problems = append(problems, lp...)
		tp, err := finishTrace(tr, w.name, cfg.traceOut)
		if err != nil {
			return report{}, err
		}
		problems = append(problems, tp...)
		rep.Metrics, err = fill(perLayer, vals)
		if err != nil {
			return report{}, err
		}
		for _, m := range perLayer {
			rep.samples[m.name] = lr.ok
		}
	} else {
		vals := map[string]float64{
			"setup_s":           median(setupS),
			"ops_per_s":         float64(lr.ok) / lr.adjWall,
			"op_ms.p50":         percentile(lr.allMs, 0.50),
			"op_ms.p90":         percentile(lr.allMs, 0.90),
			"sim_mcycles_per_s": float64(lr.cycles) / 1e6 / lr.adjWall,
			"alloc_mb_per_op":   float64(lr.allocBytes) / 1e6 / float64(max(lr.ok, 1)),
			"heap_peak_mb":      median(lr.heapPeaks) / 1e6,
		}
		rep.Metrics, err = fill(endToEnd, vals)
		if err != nil {
			return report{}, err
		}
		for _, m := range endToEnd {
			rep.samples[m.name] = lr.ok
		}
		rep.samples["setup_s"] = len(setupS)
		rep.samples["heap_peak_mb"] = len(lr.heapPeaks)
		wall := lr.wall.Seconds()
		var cpu, mem []float64
		for _, p := range lr.probes {
			cpu = append(cpu, float64(p.cpu)/float64(time.Millisecond))
			mem = append(mem, p.mem)
		}
		rep.raw = map[string]float64{
			"setup_s":      median(rawSetupS),
			"ops_per_s":    float64(lr.ok) / wall,
			"op_ms.p50":    percentile(lr.rawMs, 0.50),
			"op_ms.p90":    percentile(lr.rawMs, 0.90),
			"host_speed":   median(lr.speeds),
			"probe_cpu_ms": median(cpu),
			"probe_mem_ns": median(mem),
		}
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
	}
	rep.Correct = len(problems) == 0 && rep.Failed == 0
	return rep, nil
}

// fill turns computed values into the reported metrics, in table order;
// every name in the table must be present and nothing else.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		delete(vals, d.name)
	}
	for n := range vals {
		return nil, fmt.Errorf("metric %q is not in the metric table", n)
	}
	return out, nil
}

// finishTrace validates the traced run's spans as Chrome trace-event JSON,
// writes them out if asked, and prints each layer's self time.
func finishTrace(tr *tracer, workload, path string) ([]string, error) {
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, "afterimage-bench "+workload); err != nil {
		return nil, fmt.Errorf("encode trace: %w", err)
	}
	var problems []string
	if _, err := telemetry.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		problems = append(problems, "trace does not validate: "+err.Error())
	}
	if path != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: layer self times\n", workload)
	printLayers(os.Stderr, tr.layers())
	return problems, nil
}

// loopResult is what the closed loop measured.
type loopResult struct {
	// wall is the time the load ran, probes excluded; adjWall is the same
	// time in seconds at reference host speed.
	wall                  time.Duration
	adjWall               float64
	attempted, failed, ok int
	// allMs holds every successful operation's latency at reference host
	// speed, rawMs the same as wall time; byClass splits rawMs by class.
	allMs, rawMs []float64
	byClass      map[string][]float64
	// hashes holds the sha256 of every successful operation's result, by
	// operation index.
	hashes     map[int][32]byte
	cycles     uint64
	allocBytes uint64
	// heapPeaks and speeds hold each slice's peak in-use heap and host speed;
	// probes holds every host probe taken.
	heapPeaks, speeds []float64
	probes            []probeSample
	errs              []string
}

// runLoop drives the instance with cfg.clients closed-loop clients for the
// window, in slices of sliceLen with a host probe between two slices (see
// host.go). Operation indices come from one shared counter, so operation i
// is the same input whichever client sends it. Clients stop sending when a
// slice ends; operations still running then finish and count, and the
// slice's time runs until the last one returns.
func runLoop(ctx context.Context, inst instance, hp *hostProbe, cfg config) *loopResult {
	lr := &loopResult{byClass: map[string][]float64{}, hashes: map[int][32]byte{}}
	var next atomic.Int64

	heap := startHeapSampler()
	alloc0 := readAllocBytes()
	end := time.Now().Add(cfg.window)
	probe := hp.measure()
	lr.probes = append(lr.probes, probe)
	for time.Now().Before(end) && ctx.Err() == nil {
		start := time.Now()
		deadline := start.Add(sliceLen)
		if deadline.After(end) {
			deadline = end
		}
		ms := runSlice(ctx, inst, cfg.clients, deadline, &next, lr)
		wall := time.Since(start)
		peak := heap.take()
		after := hp.measure()
		lr.probes = append(lr.probes, after)
		speed := hostSpeed(probe, after)
		probe = after
		lr.wall += wall
		lr.adjWall += wall.Seconds() * speed
		lr.speeds = append(lr.speeds, speed)
		lr.heapPeaks = append(lr.heapPeaks, float64(peak))
		for _, m := range ms {
			lr.allMs = append(lr.allMs, m*speed)
		}
	}
	lr.allocBytes = readAllocBytes() - alloc0
	heap.stop()
	return lr
}

// runSlice runs the closed loop until deadline and waits for every
// operation to return. It records each operation in lr and returns the
// wall-time latencies of this slice's successful ones.
func runSlice(ctx context.Context, inst instance, clients int, deadline time.Time, next *atomic.Int64, lr *loopResult) []float64 {
	var mu sync.Mutex
	var ms []float64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				res, err := inst.do(ctx, c, i)
				d := time.Since(t0)
				mu.Lock()
				lr.attempted++
				if err != nil {
					lr.failed++
					if len(lr.errs) < 5 {
						lr.errs = append(lr.errs, fmt.Sprintf("op %d: %v", i, err))
					}
				} else {
					lr.ok++
					msv := float64(d) / float64(time.Millisecond)
					ms = append(ms, msv)
					lr.rawMs = append(lr.rawMs, msv)
					lr.byClass[res.class] = append(lr.byClass[res.class], msv)
					lr.hashes[i] = sha256.Sum256(res.body)
					lr.cycles += res.cycles
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return ms
}

// readAllocBytes is the process's cumulative heap allocation
// (runtime.MemStats.TotalAlloc), read without stopping the world.
func readAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak of in-use heap spans (runtime.MemStats
// HeapInuse), sampled every 100 ms, until stop is called; stop waits for the
// sampler to exit.
type heapSampler struct {
	mu           sync.Mutex
	peak         uint64
	done, exited chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), exited: make(chan struct{})}
	h.read()
	go func() {
		defer close(h.exited)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64() + s[1].Value.Uint64()
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// take returns the peak since the last take, counting a sample taken now.
func (h *heapSampler) take() uint64 {
	h.read()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return p
}

func (h *heapSampler) stop() {
	close(h.done)
	<-h.exited
}

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile holds, per workload, the sha256 of the result bytes of
// operations 0..7 at seed 1.
type goldenFile struct {
	Schema    string              `json:"schema"`
	Workloads map[string][]string `json:"workloads"`
}

const goldenSchema = "afterimage-bench-golden/1"

// verify recomputes a sample of results in-process after the window and
// compares bytes: each recomputed result must hash to what the measured path
// returned for the same operation, and at seed 1 operations 0..7 must also
// match the committed golden digests. It returns one line per mismatch.
func verify(ctx context.Context, name string, inst instance, lr *loopResult, cfg config) ([]string, error) {
	var golden []string
	if cfg.seed == 1 && cfg.writeGolden == "" {
		var g goldenFile
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			return nil, fmt.Errorf("read golden digests: %w", err)
		}
		golden = g.Workloads[name]
		if len(golden) < cfg.verify {
			return []string{fmt.Sprintf("golden file holds %d digests for %s, want %d", len(golden), name, cfg.verify)}, nil
		}
	}
	var bad []string
	var digests []string
	for _, i := range sampleOps(cfg.seed, lr.hashes, cfg.verify) {
		body, err := inst.expect(ctx, i)
		if err != nil {
			bad = append(bad, fmt.Sprintf("op %d: in-process recompute failed: %v", i, err))
			continue
		}
		sum := sha256.Sum256(body)
		if got, ok := lr.hashes[i]; ok && got != sum {
			bad = append(bad, fmt.Sprintf("op %d: served result differs from the in-process recompute", i))
		}
		digest := hex.EncodeToString(sum[:])
		digests = append(digests, digest)
		if golden != nil && golden[i] != digest {
			bad = append(bad, fmt.Sprintf("op %d: result differs from the golden digest", i))
		}
	}
	if cfg.writeGolden != "" {
		if err := writeGolden(cfg.writeGolden, name, digests); err != nil {
			return nil, err
		}
	}
	return bad, nil
}

// sampleOps picks the operations to recompute: 0..n-1 at seed 1 (the golden
// operations, recomputed even if the window did not reach them), otherwise n
// completed operations spread evenly over the window from a seed-derived
// offset.
func sampleOps(seed int64, done map[int][32]byte, n int) []int {
	if seed == 1 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	idx := make([]int, 0, len(done))
	for i := range done {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	if len(idx) <= n {
		return idx
	}
	step := len(idx) / n
	off := int(mix(uint64(seed), 0x5eed) % uint64(step))
	out := make([]int, n)
	for k := range out {
		out[k] = idx[off+k*step]
	}
	return out
}

// writeGolden stores one workload's digests in the golden file at path,
// keeping the other workloads' entries.
func writeGolden(path, name string, digests []string) error {
	g := goldenFile{Schema: goldenSchema, Workloads: map[string][]string{}}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &g); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
	}
	g.Workloads[name] = digests
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return fmt.Errorf("encode golden: %w", err)
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// mix is the splitmix64 finaliser over (a, b); workload inputs are drawn
// from it so that every input is a pure function of the seed.
func mix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// deriveSeed draws a positive lab seed for operation i of one input stream.
func deriveSeed(seed int64, stream uint64, i int) int64 {
	return int64(mix(mix(uint64(seed), stream), uint64(i))>>33) + 1
}

// percentile is the linearly interpolated q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
