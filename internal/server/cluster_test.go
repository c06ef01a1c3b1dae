package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"afterimage"
	"afterimage/internal/cluster"
	"afterimage/internal/server"
	"afterimage/internal/telemetry"
)

// clusterEnv boots a service with an embedded coordinator tuned for fast
// failover. Workers are registered by the caller.
func clusterEnv(t *testing.T, mut func(*cluster.Config)) (*env, *cluster.Coordinator) {
	t.Helper()
	var coord *cluster.Coordinator
	e := newEnv(t, func(cfg *server.Config) {
		ccfg := cluster.Config{
			Registry:       cfg.Registry,
			BackoffBase:    time.Millisecond,
			BackoffMax:     2 * time.Millisecond,
			DispatchRounds: 2,
		}
		if mut != nil {
			mut(&ccfg)
		}
		coord = cluster.New(ccfg)
		cfg.Cluster = coord
	})
	t.Cleanup(coord.Stop)
	return e, coord
}

// startClusterWorker boots one real Worker (the same code path the
// afterimage-worker binary runs) behind httptest.
func startClusterWorker(t *testing.T, id string) (*httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	w, err := server.NewWorker(server.WorkerConfig{
		ID:            id,
		CheckpointDir: t.TempDir(),
		Registry:      reg,
	})
	if err != nil {
		t.Fatalf("NewWorker(%s): %v", id, err)
	}
	hs := httptest.NewServer(w.Handler())
	t.Cleanup(hs.Close)
	return hs, reg
}

// TestClusterDispatchByteIdentity: a campaign dispatched to a real worker
// returns bytes identical to a single-process run, the result is cached
// normally (the resubmit is a hit, no second dispatch), and the trace grows a
// dispatch stage naming the worker.
func TestClusterDispatchByteIdentity(t *testing.T) {
	spec := tinySpec(210)
	golden := func() []byte {
		e := newEnv(t, nil)
		res, err := e.cl.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("golden run: %v", err)
		}
		return res.Body
	}()

	e, coord := clusterEnv(t, nil)
	w1, reg1 := startClusterWorker(t, "w1")
	w2, reg2 := startClusterWorker(t, "w2")
	if err := coord.Register("w1", w1.URL); err != nil {
		t.Fatal(err)
	}
	if err := coord.Register("w2", w2.URL); err != nil {
		t.Fatal(err)
	}

	res, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("cluster submit: %v", err)
	}
	if !bytes.Equal(res.Body, golden) {
		t.Fatalf("dispatched result diverged from single-process golden (%d vs %d bytes)",
			len(res.Body), len(golden))
	}
	if got := e.counter(t, "cluster.dispatch.worker_ok"); got != 1 {
		t.Fatalf("cluster.dispatch.worker_ok = %d, want 1", got)
	}
	completed := reg1.Snapshot().Counters["worker.jobs.completed"] +
		reg2.Snapshot().Counters["worker.jobs.completed"]
	if completed != 1 {
		t.Fatalf("workers completed %d jobs, want exactly 1", completed)
	}

	// Resubmit: a cache hit served by the coordinator, no second dispatch.
	res2, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if res2.Source != "hit" {
		t.Fatalf("resubmit source %q, want hit", res2.Source)
	}
	if got := e.counter(t, "cluster.dispatch.requests"); got != 1 {
		t.Fatalf("cluster.dispatch.requests = %d after a cache hit, want 1", got)
	}

	// The span tree records the dispatch: a dispatch stage with a job span
	// attributed to the executing worker.
	key := spec.Normalize().Key()
	trace, ok, err := e.cl.Trace(context.Background(), key)
	if err != nil || !ok {
		t.Fatalf("trace fetch: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(string(trace), `"dispatch"`) {
		t.Fatalf("trace has no dispatch stage:\n%s", trace)
	}
	if !strings.Contains(string(trace), `{"k":"worker","v":"w`) {
		t.Fatalf("trace dispatch span has no worker attribute:\n%s", trace)
	}
}

// TestClusterDegradeToLocalByteIdentity: the never-refuse guarantee at the
// service level — with zero workers, and again with only an unreachable
// worker, campaigns complete locally with bytes identical to single-process
// goldens.
func TestClusterDegradeToLocalByteIdentity(t *testing.T) {
	specEmpty, specDead := tinySpec(211), tinySpec(212)
	ge := newEnv(t, nil)
	goldenEmpty, err := ge.cl.Submit(context.Background(), specEmpty)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	goldenDead, err := ge.cl.Submit(context.Background(), specDead)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}

	e, coord := clusterEnv(t, nil)

	// Empty pool: immediate local degradation.
	res, err := e.cl.Submit(context.Background(), specEmpty)
	if err != nil {
		t.Fatalf("submit with empty pool: %v", err)
	}
	if !bytes.Equal(res.Body, goldenEmpty.Body) {
		t.Fatal("empty-pool local result diverged from golden")
	}
	if got := e.counter(t, "cluster.dispatch.local"); got != 1 {
		t.Fatalf("cluster.dispatch.local = %d, want 1", got)
	}

	// A registered-but-dead worker: failover rounds burn out, then local.
	if err := coord.Register("dead", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	res, err = e.cl.Submit(context.Background(), specDead)
	if err != nil {
		t.Fatalf("submit with dead worker: %v", err)
	}
	if !bytes.Equal(res.Body, goldenDead.Body) {
		t.Fatal("dead-worker local result diverged from golden")
	}
	if got := e.counter(t, "cluster.dispatch.failovers"); got == 0 {
		t.Fatal("dead worker produced no failovers before local degradation")
	}
	if got := e.counter(t, "cluster.dispatch.local"); got != 2 {
		t.Fatalf("cluster.dispatch.local = %d, want 2", got)
	}

	// The local path writes the cache like any other: resubmit is a hit.
	res2, err := e.cl.Submit(context.Background(), specDead)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if res2.Source != "hit" || !bytes.Equal(res2.Body, goldenDead.Body) {
		t.Fatalf("degraded result not cached: source=%q", res2.Source)
	}
}

// TestClusterKilledWorkerFailsOver: the key's worker dies (listener closed —
// a crash, from the coordinator's view); the dispatch fails over and the
// campaign completes with identical bytes anyway.
func TestClusterKilledWorkerFailsOver(t *testing.T) {
	spec := tinySpec(213)
	ge := newEnv(t, nil)
	golden, err := ge.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}

	e, coord := clusterEnv(t, func(cfg *cluster.Config) {
		cfg.DispatchRounds = 3
	})
	w1, _ := startClusterWorker(t, "w1")
	w2, _ := startClusterWorker(t, "w2")
	if err := coord.Register("w1", w1.URL); err != nil {
		t.Fatal(err)
	}
	if err := coord.Register("w2", w2.URL); err != nil {
		t.Fatal(err)
	}
	// Kill both possible primaries' tiebreak: close w1. Whichever worker the
	// key ranks first, the campaign must complete — via w2 or a failover to
	// local — with golden bytes.
	w1.Close()

	res, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit with killed worker: %v", err)
	}
	if !bytes.Equal(res.Body, golden.Body) {
		t.Fatal("result after worker kill diverged from golden")
	}
	if got := e.counter(t, "cluster.dispatch.requests"); got != 1 {
		t.Fatalf("cluster.dispatch.requests = %d, want 1", got)
	}
}

// TestClusterPhasesEventBothPaths: a campaign run in-process and one
// dispatched to a worker each publish exactly one phases progress event,
// equal to the phases of the result bytes the client received.
func TestClusterPhasesEventBothPaths(t *testing.T) {
	local := newEnv(t, nil)
	dispatched, coord := clusterEnv(t, nil)
	w1, wreg := startClusterWorker(t, "w1")
	if err := coord.Register("w1", w1.URL); err != nil {
		t.Fatal(err)
	}
	for _, path := range []struct {
		name string
		e    *env
	}{{"local", local}, {"dispatched", dispatched}} {
		t.Run(path.name, func(t *testing.T) {
			e := path.e
			spec := tinySpec(214)
			key := spec.Normalize().Key()
			started, release := gated(e)
			type submitted struct {
				body []byte
				err  error
			}
			subc := make(chan submitted, 1)
			go func() {
				res, err := e.cl.Submit(context.Background(), spec)
				if err != nil {
					subc <- submitted{err: err}
					return
				}
				subc <- submitted{body: res.Body}
			}()
			<-started

			// The stream first replays the campaign's queued state, so once
			// that arrives the subscription is attached and sees every later
			// event.
			attached := make(chan struct{})
			evc := make(chan []server.ProgressEvent, 1)
			go func() {
				var got []server.ProgressEvent
				e.cl.Events(context.Background(), key, func(ev server.ProgressEvent) bool {
					if len(got) == 0 {
						close(attached)
					}
					got = append(got, ev)
					return ev.Type != "done" && ev.Type != "error"
				})
				evc <- got
			}()
			select {
			case <-attached:
			case <-time.After(10 * time.Second):
				t.Fatal("progress stream never attached")
			}
			close(release)
			sub := <-subc
			if sub.err != nil {
				t.Fatal(sub.err)
			}
			var events []server.ProgressEvent
			select {
			case events = <-evc:
			case <-time.After(15 * time.Second):
				t.Fatal("progress stream never terminated")
			}

			var phases [][]afterimage.PhaseSummary
			for _, ev := range events {
				if ev.Type == "phases" {
					phases = append(phases, ev.Phases)
				}
			}
			if len(phases) != 1 {
				t.Fatalf("%d phases events in %+v, want exactly 1", len(phases), events)
			}
			var res afterimage.SweepResult
			if err := json.Unmarshal(sub.body, &res); err != nil {
				t.Fatalf("decode result: %v", err)
			}
			want := res.PhaseSummaries()
			if len(want) == 0 {
				t.Fatal("result carries no phases")
			}
			if !slices.Equal(phases[0], want) {
				t.Fatalf("phases event %+v, result's phases %+v", phases[0], want)
			}
		})
	}
	if n := wreg.Snapshot().Counters["worker.jobs.completed"]; n != 1 {
		t.Fatalf("worker completed %d jobs, want the dispatched campaign's 1", n)
	}
}

// TestClusterRegistrationEndpoint: the HTTP registration path the worker
// binary uses — valid registrations land in the pool (visible via the status
// endpoint), junk is rejected, and re-registration is idempotent.
func TestClusterRegistrationEndpoint(t *testing.T) {
	e, _ := clusterEnv(t, nil)

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(e.hs.URL+cluster.RegisterPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post(`{"id":"wx","addr":"http://127.0.0.1:19999"}`); got != http.StatusOK {
		t.Fatalf("register: status %d, want 200", got)
	}
	if got := post(`{"id":"wx","addr":"http://127.0.0.1:19999"}`); got != http.StatusOK {
		t.Fatalf("re-register: status %d, want 200 (idempotent)", got)
	}
	for _, bad := range []string{
		`{"id":"bad id","addr":"http://x"}`,          // invalid id characters
		`{"id":"wy","addr":""}`,                      // missing addr
		`{"id":"wy","addr":"http://x","extra":true}`, // unknown field
		`not json`,
	} {
		if got := post(bad); got != http.StatusBadRequest {
			t.Errorf("register %q: status %d, want 400", bad, got)
		}
	}

	resp, err := http.Get(e.hs.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Workers []cluster.WorkerStatus `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode workers: %v", err)
	}
	if len(out.Workers) != 1 || out.Workers[0].ID != "wx" || out.Workers[0].State != "healthy" {
		t.Fatalf("workers = %+v, want one healthy wx", out.Workers)
	}
}
