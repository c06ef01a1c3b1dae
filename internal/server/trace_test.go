package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"afterimage/internal/client"
	"afterimage/internal/server"
	"afterimage/internal/telemetry"
)

// decodeTrace parses one span-log line as served by /v1/campaigns/{key}/trace.
func decodeTrace(t *testing.T, raw []byte) telemetry.SpanRecord {
	t.Helper()
	var rec telemetry.SpanRecord
	if err := json.Unmarshal(bytes.TrimSpace(raw), &rec); err != nil {
		t.Fatalf("decode trace: %v\n%s", err, raw)
	}
	return rec
}

// TestCorrelationPropagatesToTrace: a client-supplied X-Campaign-Id is
// echoed on the response and comes back as the correlation ID of one
// connected, schema-valid span tree — campaign → stages → jobs → attempts →
// phases.
func TestCorrelationPropagatesToTrace(t *testing.T) {
	e := newEnv(t, nil)
	e.cl.Correlation = "trace-e2e.1"
	spec := tinySpec(201)
	res, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorrelationID != "trace-e2e.1" {
		t.Fatalf("response correlation %q, want the client's own", res.CorrelationID)
	}

	raw, ok, err := e.cl.Trace(context.Background(), res.Key)
	if err != nil || !ok {
		t.Fatalf("trace fetch: ok=%v err=%v", ok, err)
	}
	if n, err := telemetry.ValidateSpanLog(bytes.NewReader(raw)); err != nil || n != 1 {
		t.Fatalf("trace is not a valid 1-record span log: n=%d err=%v", n, err)
	}
	rec := decodeTrace(t, raw)
	if rec.CorrelationID != "trace-e2e.1" || rec.Key != res.Key {
		t.Fatalf("trace identity: corr=%q key=%q", rec.CorrelationID, rec.Key)
	}

	// The tree is connected and complete: three stages, one job per
	// intensity under flight, each with a final attempt carrying phases.
	root := rec.Span
	if root.Kind != telemetry.SpanKindCampaign || len(root.Children) != 3 {
		t.Fatalf("root: kind=%s children=%d", root.Kind, len(root.Children))
	}
	flight := root.Children[2]
	if flight.Name != "flight" || len(flight.Children) != len(spec.Intensities) {
		t.Fatalf("flight stage has %d jobs, want %d", len(flight.Children), len(spec.Intensities))
	}
	for _, job := range flight.Children {
		if job.Kind != telemetry.SpanKindJob || len(job.Children) == 0 {
			t.Fatalf("job %q: kind=%s attempts=%d", job.Name, job.Kind, len(job.Children))
		}
		final := job.Children[len(job.Children)-1]
		if final.Kind != telemetry.SpanKindAttempt || len(final.Children) == 0 {
			t.Fatalf("job %q final attempt has no phase spans", job.Name)
		}
		for _, ph := range final.Children {
			if ph.Kind != telemetry.SpanKindPhase {
				t.Fatalf("attempt child %q kind %s", ph.Name, ph.Kind)
			}
		}
	}
}

// TestMintedCorrelation: a submit without X-Campaign-Id (or with a malformed
// one) gets a server-minted ID, echoed and attached to the trace.
func TestMintedCorrelation(t *testing.T) {
	e := newEnv(t, nil)
	res, err := e.cl.Submit(context.Background(), tinySpec(211))
	if err != nil {
		t.Fatal(err)
	}
	if res.CorrelationID == "" {
		t.Fatal("server minted no correlation ID")
	}
	raw, ok, err := e.cl.Trace(context.Background(), res.Key)
	if err != nil || !ok {
		t.Fatalf("trace fetch: ok=%v err=%v", ok, err)
	}
	if rec := decodeTrace(t, raw); rec.CorrelationID != res.CorrelationID {
		t.Fatalf("trace corr %q != echoed %q", rec.CorrelationID, res.CorrelationID)
	}

	// Malformed header: treated as absent, minted instead — never a 4xx.
	spec := tinySpec(212)
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest(http.MethodPost, e.hs.URL+"/v1/campaigns", bytes.NewReader(body))
	req.Header.Set(server.HeaderCampaignID, "spaces are invalid")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	minted := resp.Header.Get(server.HeaderCampaignID)
	if resp.StatusCode != http.StatusOK || minted == "" || minted == "spaces are invalid" {
		t.Fatalf("malformed corr header: status=%d echoed=%q", resp.StatusCode, minted)
	}
}

// TestTraceChromeExport: ?format=chrome serves the span tree as a Chrome
// trace_event file that passes the same validator the CLI trace files do.
func TestTraceChromeExport(t *testing.T) {
	e := newEnv(t, nil)
	res, err := e.cl.Submit(context.Background(), tinySpec(221))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(e.hs.URL + "/v1/campaigns/" + res.Key + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace: %d", resp.StatusCode)
	}
	if n, err := telemetry.ValidateChromeTrace(resp.Body); err != nil || n == 0 {
		t.Fatalf("chrome trace invalid: n=%d err=%v", n, err)
	}
}

// TestTraceNotFound: unknown keys 404 (valid shape), malformed keys 400.
func TestTraceNotFound(t *testing.T) {
	e := newEnv(t, nil)
	if _, ok, err := e.cl.Trace(context.Background(), strings.Repeat("ab", 32)); err != nil || ok {
		t.Fatalf("unknown key: ok=%v err=%v", ok, err)
	}
	resp, err := http.Get(e.hs.URL + "/v1/campaigns/nothex/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key: %d, want 400", resp.StatusCode)
	}
}

// TestSpanLogWriter: a configured span log receives one validator-clean
// JSONL record per completed campaign.
func TestSpanLogWriter(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	e := newEnv(t, func(c *server.Config) {
		c.SpanLog = writerFunc(func(p []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return buf.Write(p)
		})
	})
	for seed := int64(231); seed < 234; seed++ {
		if _, err := e.cl.Submit(context.Background(), tinySpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	log := append([]byte(nil), buf.Bytes()...)
	mu.Unlock()
	n, err := telemetry.ValidateSpanLog(bytes.NewReader(log))
	if err != nil {
		t.Fatalf("span log invalid: %v\n%s", err, log)
	}
	if n != 3 {
		t.Fatalf("span log has %d records, want 3", n)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestTraceByteStableAcrossDrainRestartResume is the observability
// counterpart of the drain/resume byte-identity guarantee: a campaign
// interrupted by Drain and completed by a restarted server reports the
// byte-identical span record an uninterrupted run produces — same
// correlation ID, same tree, same cycles.
func TestTraceByteStableAcrossDrainRestartResume(t *testing.T) {
	const corr = "stability-corr-7"
	spec := tinySpec(241)
	spec.Intensities = []float64{0, 1, 2, 3}
	key := spec.Normalize().Key()

	// Golden: the same campaign and correlation ID, undisturbed.
	golden := func() []byte {
		e := newEnv(t, nil)
		e.cl.Correlation = corr
		if _, err := e.cl.Submit(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		raw, ok, err := e.cl.Trace(context.Background(), key)
		if err != nil || !ok {
			t.Fatalf("golden trace: ok=%v err=%v", ok, err)
		}
		return raw
	}()

	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	ckptDir := filepath.Join(dir, "ckpt")
	e1 := startEnv(t, storeDir, ckptDir, nil)
	e1.cl.Correlation = corr

	var drainOnce sync.Once
	drained := make(chan struct{})
	e1.srv.SetTestPointDone(func(k string, completed int) {
		if k != key || completed < 1 {
			return
		}
		drainOnce.Do(func() {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				defer cancel()
				if err := e1.srv.Drain(ctx); err != nil {
					t.Errorf("drain: %v", err)
				}
				close(drained)
			}()
		})
	})
	_, err := e1.cl.Submit(context.Background(), spec)
	var re *client.RetryableError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("drained submit: got %v, want 503", err)
	}
	select {
	case <-drained:
	case <-time.After(15 * time.Second):
		t.Fatal("drain never completed")
	}
	e1.hs.Close()

	// Restart, resume, and compare the trace bytes.
	e2 := startEnv(t, storeDir, ckptDir, nil)
	e2.cl.Correlation = corr
	if _, err := e2.cl.SubmitWait(context.Background(), spec, 10); err != nil {
		t.Fatal(err)
	}
	if got := e2.counter(t, "runner.jobs.resumed"); got < 1 {
		t.Fatalf("runner.jobs.resumed = %d, want >= 1", got)
	}
	resumed, ok, err := e2.cl.Trace(context.Background(), key)
	if err != nil || !ok {
		t.Fatalf("resumed trace: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(resumed, golden) {
		t.Fatalf("resumed span record diverged from uninterrupted run:\n%s\nvs\n%s", resumed, golden)
	}
}

// TestHealthzDraining: once Drain begins, /healthz flips to 503 with
// draining:true so load balancers pull the replica.
func TestHealthzDraining(t *testing.T) {
	e := newEnv(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(e.hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	json.NewDecoder(resp.Body).Decode(&h)
	if resp.StatusCode != http.StatusServiceUnavailable || h["draining"] != true {
		t.Fatalf("draining healthz: %d %v, want 503 draining:true", resp.StatusCode, h)
	}
}

// TestMetricsContentNegotiation: /metrics is validator-clean 0.0.4
// exposition with the per-stage latency histograms and tenant labels, served
// with the Prometheus content type with or without an Accept header.
func TestMetricsContentNegotiation(t *testing.T) {
	e := newEnv(t, nil)
	if _, err := e.cl.Submit(context.Background(), tinySpec(251)); err != nil {
		t.Fatal(err)
	}

	prom, err := e.cl.Prometheus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidatePrometheus(strings.NewReader(prom)); err != nil {
		t.Fatalf("prometheus exposition invalid: %v\n%s", err, prom)
	}
	for _, want := range []string{
		"# TYPE afterimage_server_requests_total counter",
		`afterimage_server_tenant_requests_total{tenant="t1"}`,
		"# TYPE afterimage_server_queue_wait_us histogram",
		`afterimage_server_queue_wait_us_bucket{le="+Inf"}`,
		"# TYPE afterimage_store_write_us histogram",
		"# TYPE afterimage_store_read_us histogram",
		"# TYPE afterimage_runner_attempt_us histogram",
		"# TYPE afterimage_sim_phase_train_cycles histogram",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	// A bare GET with no Accept header gets the same exposition.
	resp, err := http.Get(e.hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
		t.Fatalf("prometheus content type %q", ct)
	}
	if _, err := telemetry.ValidatePrometheus(resp.Body); err != nil {
		t.Fatalf("bare /metrics invalid: %v", err)
	}
}
