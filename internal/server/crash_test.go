package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"afterimage/internal/client"
	"afterimage/internal/cluster"
	"afterimage/internal/runner"
	"afterimage/internal/server"
	"afterimage/internal/store"
	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

// entryPath locates a campaign's store entry on disk (the store shards by
// the first key byte).
func entryPath(storeDir, key string) string {
	return filepath.Join(storeDir, key[:2], key+".entry")
}

// TestRestartServesCachedBytes: results survive an abrupt restart — a new
// server over the same store directory serves the same bytes as a hit,
// without re-executing.
func TestRestartServesCachedBytes(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	ckptDir := filepath.Join(dir, "ckpt")

	e1 := startEnv(t, storeDir, ckptDir, nil)
	first, err := e1.cl.Submit(context.Background(), tinySpec(101))
	if err != nil {
		t.Fatal(err)
	}
	e1.hs.Close() // "crash": no drain, no shutdown ceremony

	e2 := startEnv(t, storeDir, ckptDir, nil)
	second, err := e2.cl.Submit(context.Background(), tinySpec(101))
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "hit" || !bytes.Equal(first.Body, second.Body) {
		t.Fatalf("post-restart result: source=%s identical=%v",
			second.Source, bytes.Equal(first.Body, second.Body))
	}
	if got := e2.counter(t, "server.campaigns.executed"); got != 0 {
		t.Fatalf("restarted server re-executed a cached campaign (%d)", got)
	}
}

// TestCorruptEntryRecomputedIdentically: a store entry damaged while the
// server was down is quarantined by the restart recovery scan, and the next
// request transparently recomputes a byte-identical result.
func TestCorruptEntryRecomputedIdentically(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	ckptDir := filepath.Join(dir, "ckpt")

	e1 := startEnv(t, storeDir, ckptDir, nil)
	first, err := e1.cl.Submit(context.Background(), tinySpec(111))
	if err != nil {
		t.Fatal(err)
	}
	e1.hs.Close()

	// Tear the entry: keep the header but truncate the payload, the shape a
	// crash mid-write or disk fault leaves behind.
	path := entryPath(storeDir, first.Key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := startEnv(t, storeDir, ckptDir, nil)
	if got := e2.counter(t, "store.recovery.quarantined"); got != 1 {
		t.Fatalf("recovery scan quarantined %d files, want 1", got)
	}
	again, err := e2.cl.Submit(context.Background(), tinySpec(111))
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != "miss" {
		t.Fatalf("damaged entry served as %q, want recompute (miss)", again.Source)
	}
	if !bytes.Equal(first.Body, again.Body) {
		t.Fatalf("recomputed result differs from the original:\n%s\nvs\n%s", first.Body, again.Body)
	}
}

// TestDrainCheckpointsAndRestartResumes is the graceful-shutdown
// end-to-end: SIGTERM-style Drain mid-campaign cancels the run after some
// points completed, the interrupted request gets a retryable 503, the
// checkpoint survives on disk, and a restarted server resumes the campaign
// from it — completing only the missing points and producing bytes identical
// to a never-interrupted run.
func TestDrainCheckpointsAndRestartResumes(t *testing.T) {
	spec := tinySpec(121)
	spec.Intensities = []float64{0, 1, 2, 3} // enough points to interrupt between
	key := spec.Normalize().Key()

	// Golden: the same campaign, undisturbed.
	golden := func() []byte {
		e := newEnv(t, nil)
		res, err := e.cl.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Body
	}()

	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	ckptDir := filepath.Join(dir, "ckpt")
	e1 := startEnv(t, storeDir, ckptDir, nil)

	// Drain the server as soon as the first point checkpoints.
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
	if got := e1.counter(t, "server.campaigns.canceled"); got != 1 {
		t.Fatalf("campaigns.canceled = %d, want 1", got)
	}

	// The interrupted campaign's progress is on disk.
	ckpt := filepath.Join(ckptDir, key+".ckpt")
	keys, err := runnerCompletedKeys(ckpt)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if len(keys) < 1 || len(keys) >= len(spec.Intensities) {
		t.Fatalf("checkpoint holds %d completed points, want 1..%d",
			len(keys), len(spec.Intensities)-1)
	}
	e1.hs.Close()

	// Restart over the same directories: the next request resumes the
	// checkpointed points instead of re-simulating them.
	e2 := startEnv(t, storeDir, ckptDir, nil)
	res, err := e2.cl.SubmitWait(context.Background(), spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "miss" {
		t.Fatalf("resumed campaign source %q, want miss", res.Source)
	}
	if got := e2.counter(t, "runner.jobs.resumed"); got < 1 {
		t.Fatalf("runner.jobs.resumed = %d, want >= 1 (campaign restarted from scratch)", got)
	}
	if !bytes.Equal(res.Body, golden) {
		t.Fatalf("drain-interrupted campaign diverged from uninterrupted run:\n%s\nvs\n%s", res.Body, golden)
	}
	// The completed campaign's checkpoint is superseded and removed.
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint not cleaned up after completion: %v", err)
	}
}

// TestRestartAfterTornCheckpoint: a checkpoint file torn at the moment of a
// crash must not wedge the campaign — the runner treats unparseable trailing
// state conservatively and the campaign still completes byte-identically.
func TestRestartAfterTornCheckpoint(t *testing.T) {
	spec := tinySpec(131)
	spec.Intensities = []float64{0, 1, 2}
	key := spec.Normalize().Key()

	golden := func() []byte {
		e := newEnv(t, nil)
		res, err := e.cl.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Body
	}()

	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Plant a torn checkpoint: half a JSON line, as a crash mid-write (without
	// the fsync'd rename) would leave.
	ckpt := filepath.Join(ckptDir, key+".ckpt")
	if err := os.WriteFile(ckpt, []byte(`{"key":"sweep/v1-thread/0/0","va`), 0o644); err != nil {
		t.Fatal(err)
	}

	e := startEnv(t, storeDir, ckptDir, nil)
	res, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("campaign with torn checkpoint: %v", err)
	}
	if !bytes.Equal(res.Body, golden) {
		t.Fatalf("torn checkpoint corrupted the campaign:\n%s\nvs\n%s", res.Body, golden)
	}
	// The damaged file was quarantined for forensics, not deleted.
	if _, err := os.Stat(ckpt + ".corrupt"); err != nil {
		t.Fatalf("torn checkpoint not quarantined: %v", err)
	}
}

// checkpointProbeFS is a store filesystem that, each time the store
// creates an entry's temp file, records whether the campaign checkpoint at
// ckpt still exists.
type checkpointProbeFS struct {
	vfs.FS
	ckpt string

	mu   sync.Mutex
	seen []bool
}

func (f *checkpointProbeFS) Create(path string) (vfs.File, error) {
	_, err := os.Stat(f.ckpt)
	f.mu.Lock()
	f.seen = append(f.seen, err == nil)
	f.mu.Unlock()
	return f.FS.Create(path)
}

// drainAfterFirstPoint drains e's server once campaign key completes its
// first point, and holds that point's runner worker until the drain has
// canceled the campaign, so no later point completes and the drain's
// checkpoint write is certain. The returned channel closes when the drain
// has finished.
func drainAfterFirstPoint(t *testing.T, e *env, key string) <-chan struct{} {
	t.Helper()
	flightCtx := make(chan context.Context, 1)
	e.srv.SetTestGate(func(ctx context.Context, k string) error {
		if k == key {
			flightCtx <- ctx
		}
		return nil
	})
	drained := make(chan struct{})
	var once sync.Once
	e.srv.SetTestPointDone(func(k string, completed int) {
		if k != key {
			return
		}
		once.Do(func() {
			ctx := <-flightCtx
			go func() {
				dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				defer cancel()
				if err := e.srv.Drain(dctx); err != nil {
					t.Errorf("drain: %v", err)
				}
				close(drained)
			}()
			<-ctx.Done()
		})
	})
	return drained
}

// submitDrained submits spec to a server that drainAfterFirstPoint drains,
// requires the retryable 503 a drained campaign answers, and waits for the
// drain to finish.
func submitDrained(t *testing.T, e *env, spec server.CampaignSpec, drained <-chan struct{}) {
	t.Helper()
	_, err := e.cl.Submit(context.Background(), spec)
	var re *client.RetryableError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("drained submit: got %v, want 503", err)
	}
	select {
	case <-drained:
	case <-time.After(15 * time.Second):
		t.Fatal("drain never completed")
	}
}

// TestCheckpointOutlivesStoreWrite: a served campaign's checkpoint still
// exists when the store writes the campaign's result, and is gone once the
// campaign has answered, on the local path and on the cluster's
// degrade-to-local path. A kill between the two therefore finds either the
// stored result or the checkpoint, never neither. A tiny campaign that
// completes writes no checkpoint, so a first server is drained after the
// campaign's first point, which writes one, and a restarted server
// completes the campaign from it.
func TestCheckpointOutlivesStoreWrite(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		spec := tinySpec(141)
		key := spec.Normalize().Key()
		dir := t.TempDir()
		ckptDir := filepath.Join(dir, "ckpt")
		probe := &checkpointProbeFS{FS: vfs.OS(), ckpt: filepath.Join(ckptDir, key+".ckpt")}
		start := func(storeDir string, storeFS vfs.FS) *env {
			reg := telemetry.NewRegistry()
			st, _, err := store.OpenWith(store.Options{Dir: storeDir, Registry: reg, FS: storeFS})
			if err != nil {
				t.Fatal(err)
			}
			cfg := server.Config{Store: st, CheckpointDir: ckptDir, Registry: reg}
			if clustered {
				// No workers: every dispatch degrades to local execution.
				coord := cluster.New(cluster.Config{})
				t.Cleanup(coord.Stop)
				cfg.Cluster = coord
			}
			srv, err := server.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			t.Cleanup(hs.Close)
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Drain(ctx)
			})
			return &env{srv: srv, hs: hs, cl: client.New(hs.URL), reg: reg, st: st}
		}

		first := start(filepath.Join(dir, "store-first"), vfs.OS())
		submitDrained(t, first, spec, drainAfterFirstPoint(t, first, key))
		if _, err := os.Stat(probe.ckpt); err != nil {
			t.Fatalf("clustered=%v: the drained run left no checkpoint: %v", clustered, err)
		}
		first.hs.Close()

		e := start(filepath.Join(dir, "store"), probe)
		res, err := e.cl.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("clustered=%v: %v", clustered, err)
		}
		if res.Source != "miss" {
			t.Fatalf("clustered=%v: source %q, want miss", clustered, res.Source)
		}
		if got := e.counter(t, "runner.jobs.resumed"); got != 1 {
			t.Fatalf("clustered=%v: runner.jobs.resumed = %d, want the drained run's point", clustered, got)
		}
		probe.mu.Lock()
		seen := probe.seen
		probe.mu.Unlock()
		if len(seen) != 1 || !seen[0] {
			t.Fatalf("clustered=%v: checkpoint present at the store's writes: %v, want [true]", clustered, seen)
		}
		if _, err := os.Stat(probe.ckpt); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("clustered=%v: checkpoint not removed after the result was stored: %v", clustered, err)
		}
	}
}

// writeCountFS counts the filesystem calls that begin or publish a write:
// creates, renames and directory syncs. Every file write and fsync goes
// through a file a create opened.
type writeCountFS struct {
	vfs.FS
	mu    sync.Mutex
	calls map[string]int
}

func (f *writeCountFS) count(op string) {
	f.mu.Lock()
	f.calls[op]++
	f.mu.Unlock()
}

func (f *writeCountFS) Create(path string) (vfs.File, error) {
	f.count("create")
	return f.FS.Create(path)
}

func (f *writeCountFS) Rename(oldpath, newpath string) error {
	f.count("rename")
	return f.FS.Rename(oldpath, newpath)
}

func (f *writeCountFS) SyncDir(path string) error {
	f.count("syncdir")
	return f.FS.SyncDir(path)
}

// TestCheckpointTinyMissWritesNothing: a served miss whose points take far
// less compute than the checkpoint bound completes without writing its
// checkpoint at all — the service deletes the file once the result is
// stored, so there is nothing to protect.
func TestCheckpointTinyMissWritesNothing(t *testing.T) {
	fsys := &writeCountFS{FS: vfs.OS(), calls: make(map[string]int)}
	e := newEnv(t, func(cfg *server.Config) { cfg.FS = fsys })
	res, err := e.cl.Submit(context.Background(), tinySpec(151))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "miss" {
		t.Fatalf("source %q, want miss", res.Source)
	}
	fsys.mu.Lock()
	calls := fmt.Sprint(fsys.calls)
	fsys.mu.Unlock()
	if calls != "map[]" {
		t.Fatalf("checkpoint filesystem calls %s, want none", calls)
	}
	if got := e.counter(t, "runner.checkpoint.writes"); got != 0 {
		t.Fatalf("runner.checkpoint.writes = %d, want 0", got)
	}
}

// runnerCompletedKeys reads a runner checkpoint's completed-job keys.
func runnerCompletedKeys(path string) ([]string, error) {
	return runner.CompletedKeys(path)
}

// TestStoreDirSurvivesServerChurn: several sequential server generations
// over one store accumulate a consistent cache — every generation serves
// prior generations' results as hits.
func TestStoreDirSurvivesServerChurn(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	ckptDir := filepath.Join(dir, "ckpt")

	bodies := map[int64][]byte{}
	for gen := 0; gen < 3; gen++ {
		e := startEnv(t, storeDir, ckptDir, nil)
		for seed := int64(140); seed < 143; seed++ {
			res, err := e.cl.Submit(context.Background(), tinySpec(seed))
			if err != nil {
				t.Fatalf("gen %d seed %d: %v", gen, seed, err)
			}
			if prev, ok := bodies[seed]; ok {
				if res.Source != "hit" {
					t.Fatalf("gen %d seed %d: source %q, want hit", gen, seed, res.Source)
				}
				if !bytes.Equal(prev, res.Body) {
					t.Fatalf("gen %d seed %d: bytes diverged across restarts", gen, seed)
				}
			} else {
				bodies[seed] = res.Body
			}
		}
		if gen > 0 {
			if got := e.counter(t, "server.campaigns.executed"); got != 0 {
				t.Fatalf("gen %d re-executed %d cached campaigns", gen, got)
			}
		}
		e.hs.Close()
	}
	// Final sanity: the store holds exactly the three distinct campaigns.
	st, _, err := store.Open(storeDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3 {
		t.Fatalf("store holds %d entries, want 3", st.Len())
	}
	_ = server.SpecSchema // anchor: bumping the schema invalidates this cache
}
