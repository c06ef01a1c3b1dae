package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"afterimage/internal/client"
	"afterimage/internal/server"
	"afterimage/internal/store"
	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

// startDegradeEnv boots a service whose store runs over the given vfs.FS
// with a fast-recovering write-health breaker — the harness for every
// shed-the-cache-write test below.
func startDegradeEnv(t *testing.T, storeFS vfs.FS, mut func(*server.Config)) *env {
	t.Helper()
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	ckptDir := filepath.Join(dir, "ckpt")
	reg := telemetry.NewRegistry()
	st, _, err := store.OpenWith(store.Options{
		Dir: storeDir, Registry: reg, FS: storeFS,
		BreakerThreshold: 2, BreakerCooldown: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(st.Close)
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

// TestCampaignServedWhenStoreWritesFail: with every store write failing, a
// submitted campaign still returns 200 with bytes identical to a healthy
// run's — the response is marked degraded and the shed write is counted.
func TestCampaignServedWhenStoreWritesFail(t *testing.T) {
	spec := tinySpec(41)

	// Golden bytes from a healthy service.
	clean := newEnv(t, nil)
	golden, err := clean.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	fsys := vfs.NewFaultFS(vfs.FaultConfig{Seed: 13, EIORate: 1}, nil)
	e := startDegradeEnv(t, fsys, nil)
	res, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("campaign failed under store-write faults: %v", err)
	}
	if res.Source != "degraded" {
		t.Fatalf("Source = %q, want degraded", res.Source)
	}
	if !bytes.Equal(res.Body, golden.Body) {
		t.Fatal("degraded response bytes differ from a healthy run")
	}
	if v := e.counter(t, "server.campaigns.degraded"); v != 1 {
		t.Fatalf("server.campaigns.degraded = %d, want 1", v)
	}
	if v := e.counter(t, "store.degraded.writes"); v == 0 {
		t.Fatal("store.degraded.writes = 0, want > 0")
	}
	// Nothing was cached: the next submission recomputes (and is degraded
	// again — by now via the open breaker's fast path).
	res2, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source != "degraded" {
		t.Fatalf("second Source = %q, want degraded", res2.Source)
	}
	if !bytes.Equal(res2.Body, golden.Body) {
		t.Fatal("second degraded response bytes differ from a healthy run")
	}

	// Heal the disk; once the breaker's cooldown passes, the cache resumes:
	// one more miss that persists, then a genuine hit.
	fsys.SetEnabled(false)
	time.Sleep(50 * time.Millisecond)
	res3, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Source != "miss" {
		t.Fatalf("post-heal Source = %q, want miss", res3.Source)
	}
	res4, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res4.Source != "hit" {
		t.Fatalf("post-heal second Source = %q, want hit", res4.Source)
	}
	if !bytes.Equal(res4.Body, golden.Body) {
		t.Fatal("cached post-heal bytes differ from a healthy run")
	}
}

// TestCheckpointFaultsDontFailCampaigns: a checkpoint directory on a failing
// disk costs resumability, not results. A tiny campaign that completes
// writes no checkpoint, so the failed write is the one a drain forces after
// the first point; the degradation is visible in
// runner.checkpoint.degraded. Resubmitted to a restarted server on the same
// failing disk, the campaign completes as a normal miss with the bytes of a
// healthy run, and is cached.
func TestCheckpointFaultsDontFailCampaigns(t *testing.T) {
	spec := tinySpec(42)
	key := spec.Normalize().Key()
	golden, err := newEnv(t, nil).cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	storeDir, ckptDir := filepath.Join(dir, "store"), filepath.Join(dir, "ckpt")
	failing := func(cfg *server.Config) {
		cfg.FS = vfs.NewFaultFS(vfs.FaultConfig{Seed: 17, EIORate: 1}, nil)
	}
	first := startEnv(t, storeDir, ckptDir, failing)
	submitDrained(t, first, spec, drainAfterFirstPoint(t, first, key))
	if v := first.counter(t, "runner.checkpoint.degraded"); v == 0 {
		t.Fatal("runner.checkpoint.degraded = 0, want > 0")
	}
	first.hs.Close()

	e := startEnv(t, storeDir, ckptDir, failing)
	res, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("campaign failed under checkpoint faults: %v", err)
	}
	if res.Source != "miss" {
		t.Fatalf("Source = %q, want miss (store is healthy)", res.Source)
	}
	if !bytes.Equal(res.Body, golden.Body) {
		t.Fatal("response bytes under checkpoint faults differ from a healthy run")
	}
	// The result is cached despite the checkpoint loss.
	res2, err := e.cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source != "hit" {
		t.Fatalf("second Source = %q, want hit", res2.Source)
	}
}

// TestScrubEndpoint: POST /v1/store/scrub verifies every entry now,
// quarantines planted bit rot, and reports what it found; the rotted
// campaign transparently recomputes on its next submission.
func TestScrubEndpoint(t *testing.T) {
	e := newEnv(t, nil)
	res, err := e.cl.Submit(context.Background(), tinySpec(43))
	if err != nil {
		t.Fatal(err)
	}

	// Rot the stored entry under the server.
	entry := findEntryFile(t, e.storeDir)
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(entry, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(e.hs.URL+"/v1/store/scrub", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub status = %d, want 200", resp.StatusCode)
	}
	var rep store.ScrubReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 1 || rep.Corrupt != 1 {
		t.Fatalf("ScrubReport = %+v, want Scanned 1 Corrupt 1", rep)
	}
	if v := e.counter(t, "store.scrub.corrupt"); v != 1 {
		t.Fatalf("store.scrub.corrupt = %d, want 1", v)
	}

	// The campaign recomputes and returns identical bytes.
	res2, err := e.cl.Submit(context.Background(), tinySpec(43))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source != "miss" {
		t.Fatalf("post-quarantine Source = %q, want miss", res2.Source)
	}
	if !bytes.Equal(res2.Body, res.Body) {
		t.Fatal("recomputed bytes differ from the original result")
	}
}

// TestFlightPinsResultKey: the single-flight execution pins its key for its
// whole lifetime (so the GC cannot evict the result mid-serve) and unpins it
// when the flight resolves.
func TestFlightPinsResultKey(t *testing.T) {
	e := newEnv(t, nil)
	started, release := gated(e)

	spec := tinySpec(44)
	key := spec.Normalize().Key()
	done := make(chan error, 1)
	go func() {
		_, err := e.cl.Submit(context.Background(), spec)
		done <- err
	}()
	<-started
	if n := e.st.Pinned(key); n != 1 {
		t.Fatalf("Pinned during flight = %d, want 1", n)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.st.Pinned(key) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Pinned after flight = %d, want 0", e.st.Pinned(key))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// findEntryFile locates the single *.entry file under a store directory.
func findEntryFile(t *testing.T, dir string) string {
	t.Helper()
	var found string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".entry") {
			if found != "" {
				t.Fatalf("multiple entries: %s and %s", found, path)
			}
			found = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == "" {
		t.Fatal("no .entry file in store")
	}
	return found
}
