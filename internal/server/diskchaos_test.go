package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"afterimage/internal/client"
	"afterimage/internal/server"
	"afterimage/internal/store"
)

// TestDiskChaosSoak is the out-of-process disk-fault soak: it builds the
// real afterimage-serve binary and runs it with the deterministic filesystem
// fault injector live (-fs-chaos: ENOSPC, EIO, torn writes, rename
// failures), a store size budget, and the background scrubber — then gates
// on the service's degradation contract:
//
//   - every submitted campaign returns 200 with bytes identical to a
//     healthy in-process run, no matter which writes the injector failed;
//   - shed cache writes are visible (store.degraded.writes > 0), never
//     campaign failures;
//   - planted bit rot is quarantined by a scrub pass and the campaign
//     transparently recomputes;
//   - a SIGKILL mid-campaign followed by a restart over the same damaged
//     directories still serves byte-identical results.
//
// On failure the store/checkpoint directories are preserved (path logged)
// so CI can upload them as an artifact.
func TestDiskChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("disk-chaos soak skipped in -short mode")
	}

	work, err := os.MkdirTemp("", "afterimage-disk-chaos-")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if t.Failed() {
			t.Logf("disk-chaos artifacts preserved at %s", work)
			return
		}
		os.RemoveAll(work)
	}()
	storeDir := filepath.Join(work, "store")
	ckptDir := filepath.Join(work, "checkpoints")

	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(work, "afterimage-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/afterimage-serve")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build afterimage-serve: %v\n%s", err, out)
	}

	addr := freeAddr(t)
	cl := client.New("http://" + addr)
	start := func() *exec.Cmd {
		t.Helper()
		var cmd *exec.Cmd
		cmd, addr = startServer(t, bin, addr, os.Stderr, func(addr string) []string {
			return []string{"-addr", addr, "-store", storeDir, "-checkpoints", ckptDir,
				"-max-campaigns", "2", "-queue", "8", "-tenant-quota", "8",
				"-retry-after", "1s",
				"-fs-chaos", "seed=7,enospc=0.10,eio=0.15,torn=0.08,rename=0.08",
				"-store-budget", "1048576",
				"-store-scrub-interval", "250ms"}
		})
		cl.Base = "http://" + addr
		return cmd
	}

	// Goldens: every campaign's bytes from a healthy in-process service.
	seeds := []int64{950, 951, 952, 953, 954, 955}
	golden := make(map[int64][]byte)
	{
		e := newEnv(t, nil)
		for _, seed := range seeds {
			res, err := e.cl.Submit(context.Background(), tinySpec(seed))
			if err != nil {
				t.Fatalf("golden seed %d: %v", seed, err)
			}
			golden[seed] = res.Body
		}
	}
	victim := server.CampaignSpec{
		Tenant: "chaos", Attack: "v1-thread", Seed: 960,
		Bits: 16, Intensities: []float64{0, 1, 2, 3, 4, 5},
	}
	victimGolden := func() []byte {
		e := newEnv(t, nil)
		res, err := e.cl.Submit(context.Background(), victim)
		if err != nil {
			t.Fatalf("victim golden: %v", err)
		}
		return res.Body
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// ---- Generation 1: concurrent load under live fault injection. ----
	gen1 := start()
	var wg sync.WaitGroup
	for _, seed := range seeds {
		seed := seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cl.SubmitWait(ctx, tinySpec(seed), 60)
			if err != nil {
				t.Errorf("seed %d under chaos: %v", seed, err)
				return
			}
			if !bytes.Equal(res.Body, golden[seed]) {
				t.Errorf("seed %d under chaos: bytes differ from healthy run", seed)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		gen1.Process.Kill()
		return
	}

	// Resubmitting everything must reproduce the identical bytes, whether it
	// comes back as hit (cached), miss (recomputed after a shed or
	// quarantined write), or degraded (shed again).
	for _, seed := range seeds {
		res, err := cl.SubmitWait(ctx, tinySpec(seed), 60)
		if err != nil {
			t.Fatalf("seed %d resubmit: %v", seed, err)
		}
		if !bytes.Equal(res.Body, golden[seed]) {
			t.Fatalf("seed %d resubmit: bytes differ (source %q)", seed, res.Source)
		}
	}

	// The injector must actually have shed cache writes by now; if this
	// seed's schedule was somehow all-clean the soak would be vacuous.
	if v := metricValue(t, cl, "store.degraded.writes"); v == 0 {
		t.Fatal("store.degraded.writes = 0 despite heavy fault injection; soak is vacuous")
	}

	// ---- Bit rot: flip a stored byte, scrub, verify quarantine + recompute. ----
	if entries := findEntryFiles(t, storeDir); len(entries) > 0 {
		raw, err := os.ReadFile(entries[0])
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x20
		if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+addr+"/v1/store/scrub", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var rep store.ScrubReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if rep.Corrupt < 1 {
			t.Fatalf("scrub after planted bit rot: %+v, want Corrupt >= 1", rep)
		}
	}
	for _, seed := range seeds {
		res, err := cl.SubmitWait(ctx, tinySpec(seed), 60)
		if err != nil {
			t.Fatalf("seed %d after bit rot: %v", seed, err)
		}
		if !bytes.Equal(res.Body, golden[seed]) {
			t.Fatalf("seed %d after bit rot: bytes differ (source %q)", seed, res.Source)
		}
	}

	// ---- SIGKILL mid-victim, restart over the same damaged state. ----
	startedJobs := metricValue(t, cl, "runner.jobs.started")
	go cl.Submit(ctx, victim) // the kill severs this request; ignore it
	deadline := time.Now().Add(60 * time.Second)
	for metricValue(t, cl, "runner.jobs.started") <= startedJobs {
		if time.Now().After(deadline) {
			t.Fatal("victim campaign never started a point")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := gen1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	gen1.Wait()

	gen2 := start()
	defer func() {
		gen2.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { gen2.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			gen2.Process.Kill()
		}
	}()

	// The interrupted victim completes with bytes identical to an
	// uninterrupted healthy run — resumed from its checkpoint if the
	// injector let the checkpoint survive, recomputed from scratch if not.
	res, err := cl.SubmitWait(ctx, victim, 60)
	if err != nil {
		t.Fatalf("victim after kill+restart: %v", err)
	}
	if !bytes.Equal(res.Body, victimGolden) {
		t.Fatalf("victim after kill+restart: bytes differ from healthy run (source %q)", res.Source)
	}
	// And the small campaigns still serve identically over the crashed,
	// fault-injected store.
	for _, seed := range seeds {
		res, err := cl.SubmitWait(ctx, tinySpec(seed), 60)
		if err != nil {
			t.Fatalf("seed %d after restart: %v", seed, err)
		}
		if !bytes.Equal(res.Body, golden[seed]) {
			t.Fatalf("seed %d after restart: bytes differ (source %q)", seed, res.Source)
		}
	}
}

// findEntryFiles lists every *.entry file under a store directory, sorted by
// path (quarantine excluded).
func findEntryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == store.QuarantineDir {
			return fs.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".entry") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
