package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"afterimage/internal/client"
	"afterimage/internal/cluster"
	"afterimage/internal/server"
)

// TestClusterSoak is the out-of-process chaos soak for the sharded lab pool:
// it boots the real afterimage-serve binary in cluster mode plus three real
// afterimage-worker processes, then — mid-campaign — SIGKILLs one worker (a
// crash) and SIGUSR1-partitions another (a netsplit: the process lives, every
// request to it stalls). The gates, in order of severity:
//
//   - every campaign submitted across the chaos completes;
//   - every result is byte-identical to an in-process single-node golden,
//     whichever worker (or the local degradation path) produced it;
//   - after ALL workers are dead the service still answers — degrade-to-local
//     is observable via cluster.dispatch.local.
//
// Worker logs land in the preserved work directory on failure so CI can
// upload them as artifacts.
func TestClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster soak skipped in -short mode")
	}

	work, err := os.MkdirTemp("", "afterimage-cluster-soak-")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if t.Failed() {
			t.Logf("cluster soak artifacts preserved at %s", work)
			return
		}
		os.RemoveAll(work)
	}()

	// Build both binaries under test.
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	serveBin := filepath.Join(work, "afterimage-serve")
	workerBin := filepath.Join(work, "afterimage-worker")
	for bin, pkg := range map[string]string{
		serveBin:  "./cmd/afterimage-serve",
		workerBin: "./cmd/afterimage-worker",
	} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Dir = repoRoot
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	// ---- Coordinator. ----
	serve, serveAddr := startServer(t, serveBin, freeAddr(t), os.Stderr, func(addr string) []string {
		return []string{"-addr", addr,
			"-store", filepath.Join(work, "store"),
			"-checkpoints", filepath.Join(work, "checkpoints"),
			"-max-campaigns", "4", "-queue", "8", "-tenant-quota", "8",
			"-retry-after", "1s",
			"-cluster",
			"-cluster-heartbeat", "100ms",
			"-cluster-evict-after", "500ms",
			"-cluster-dispatch-rounds", "3",
			"-cluster-dispatch-timeout", "10s",
			"-cluster-hedge-after", "500ms"}
	})
	defer func() {
		serve.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { serve.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			serve.Process.Kill()
		}
	}()
	cl := client.New("http://" + serveAddr)

	// ---- Three workers, all chaos-capable. ----
	workers := make(map[string]*exec.Cmd, 3)
	logs := make(map[string]*os.File, 3)
	defer func() {
		for _, cmd := range workers {
			cmd.Process.Kill()
			cmd.Wait()
		}
		for _, logf := range logs {
			logf.Close()
		}
		if t.Failed() {
			for _, id := range []string{"w1", "w2", "w3"} {
				if raw, err := os.ReadFile(filepath.Join(work, id+".log")); err == nil {
					t.Logf("---- %s log ----\n%s", id, raw)
				}
			}
		}
	}()
	for _, id := range []string{"w1", "w2", "w3"} {
		logf, err := os.Create(filepath.Join(work, id+".log"))
		if err != nil {
			t.Fatal(err)
		}
		logs[id] = logf
		workers[id], _ = startServer(t, workerBin, freeAddr(t), logf, func(addr string) []string {
			return []string{"-addr", addr,
				"-id", id,
				"-coordinator", "http://" + serveAddr,
				"-checkpoints", filepath.Join(work, id+"-checkpoints"),
				"-register-every", "200ms",
				"-chaos"}
		})
	}

	healthyWorkers := func() int {
		resp, err := http.Get("http://" + serveAddr + "/v1/cluster/workers")
		if err != nil {
			return -1
		}
		defer resp.Body.Close()
		var out struct {
			Workers []cluster.WorkerStatus `json:"workers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return -1
		}
		n := 0
		for _, w := range out.Workers {
			if w.State == "healthy" {
				n++
			}
		}
		return n
	}
	waitHealthy := func(want int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if healthyWorkers() >= want {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("pool never reached %d healthy workers (have %d)", want, healthyWorkers())
	}
	waitHealthy(3)

	// ---- Goldens: the same campaigns, in-process, single node. ----
	victim := server.CampaignSpec{
		Tenant: "csoak", Attack: "v1-thread", Seed: 930,
		Bits: 16, Intensities: []float64{0, 1, 2, 3, 4, 5},
	}
	goldens := map[string][]byte{}
	{
		ge := newEnv(t, nil)
		gv, err := ge.cl.Submit(context.Background(), victim)
		if err != nil {
			t.Fatalf("golden victim: %v", err)
		}
		goldens["victim"] = gv.Body
		for seed := int64(931); seed <= 935; seed++ {
			g, err := ge.cl.Submit(context.Background(), tinySpec(seed))
			if err != nil {
				t.Fatalf("golden %d: %v", seed, err)
			}
			goldens[fmt.Sprintf("tiny-%d", seed)] = g.Body
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Sanity: one campaign through the healthy pool, byte-identical.
	res, err := cl.SubmitWait(ctx, tinySpec(931), 30)
	if err != nil {
		t.Fatalf("pre-chaos campaign: %v", err)
	}
	if !bytes.Equal(res.Body, goldens["tiny-931"]) {
		t.Fatal("pre-chaos result diverged from golden")
	}
	if metricValue(t, cl, "cluster.dispatch.requests") == 0 {
		t.Fatal("campaign completed without a cluster dispatch; cluster mode inactive?")
	}

	// ---- Chaos: launch the big victim, then kill w1 and partition w2 while
	// it is in flight. ----
	baseline := metricValue(t, cl, "cluster.dispatch.requests")
	victimc := make(chan error, 1)
	var victimBody []byte
	go func() {
		r, err := cl.SubmitWait(ctx, victim, 60)
		if err == nil {
			victimBody = r.Body
		}
		victimc <- err
	}()
	deadline := time.Now().Add(60 * time.Second)
	for metricValue(t, cl, "cluster.dispatch.requests") <= baseline {
		if time.Now().After(deadline) {
			t.Fatal("victim campaign never dispatched")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := workers["w1"].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL w1: %v", err)
	}
	workers["w1"].Wait()
	if err := workers["w2"].Process.Signal(syscall.SIGUSR1); err != nil {
		t.Fatalf("SIGUSR1 w2: %v", err)
	}
	t.Log("chaos injected: w1 SIGKILLed, w2 partitioned")

	if err := <-victimc; err != nil {
		t.Fatalf("victim campaign failed under chaos: %v", err)
	}
	if !bytes.Equal(victimBody, goldens["victim"]) {
		t.Fatalf("victim diverged from golden under chaos (%d vs %d bytes)",
			len(victimBody), len(goldens["victim"]))
	}

	// Load during the degraded phase: every campaign completes, byte for byte.
	var wg sync.WaitGroup
	for seed := int64(932); seed <= 933; seed++ {
		seed := seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := cl.SubmitWait(ctx, tinySpec(seed), 60)
			if err != nil {
				t.Errorf("seed %d during chaos: %v", seed, err)
				return
			}
			if !bytes.Equal(r.Body, goldens[fmt.Sprintf("tiny-%d", seed)]) {
				t.Errorf("seed %d during chaos diverged from golden", seed)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Heal the partition; w2 must rejoin and the pool keep serving.
	if err := workers["w2"].Process.Signal(syscall.SIGUSR1); err != nil {
		t.Fatalf("heal w2: %v", err)
	}
	res, err = cl.SubmitWait(ctx, tinySpec(934), 60)
	if err != nil {
		t.Fatalf("post-heal campaign: %v", err)
	}
	if !bytes.Equal(res.Body, goldens["tiny-934"]) {
		t.Fatal("post-heal result diverged from golden")
	}

	// ---- Total worker loss: the service must degrade to local, never refuse.
	for _, id := range []string{"w2", "w3"} {
		workers[id].Process.Signal(syscall.SIGKILL)
		workers[id].Wait()
	}
	localBaseline := metricValue(t, cl, "cluster.dispatch.local")
	res, err = cl.SubmitWait(ctx, tinySpec(935), 60)
	if err != nil {
		t.Fatalf("campaign with zero workers: %v", err)
	}
	if !bytes.Equal(res.Body, goldens["tiny-935"]) {
		t.Fatal("zero-worker local result diverged from golden")
	}
	if got := metricValue(t, cl, "cluster.dispatch.local"); got <= localBaseline {
		t.Fatalf("cluster.dispatch.local did not grow (%d -> %d); degrade path not taken", localBaseline, got)
	}
	t.Logf("soak metrics: dispatches=%d failovers=%d hedged=%d local=%d evicted=%d",
		metricValue(t, cl, "cluster.dispatch.requests"),
		metricValue(t, cl, "cluster.dispatch.failovers"),
		metricValue(t, cl, "cluster.dispatch.hedged"),
		metricValue(t, cl, "cluster.dispatch.local"),
		metricValue(t, cl, "cluster.workers.evicted"))
}
