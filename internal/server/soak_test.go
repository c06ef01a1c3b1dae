package server_test

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"afterimage/internal/client"
	"afterimage/internal/server"
)

// TestServeSoak is the out-of-process crash soak: it builds the real
// afterimage-serve binary, drives it with concurrent clients, SIGKILLs it
// mid-campaign (no drain, no warning), restarts it over the same
// directories, and gates on the service's durability contract:
//
//   - results completed before the kill are served as cache hits with
//     byte-identical bodies;
//   - the campaign interrupted by the kill completes after restart with
//     bytes identical to an uninterrupted in-process run, resuming its
//     checkpointed points rather than starting over.
//
// On failure the store/checkpoint directories are preserved (path logged)
// so CI can upload them as an artifact.
func TestServeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}

	work, err := os.MkdirTemp("", "afterimage-serve-soak-")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if t.Failed() {
			t.Logf("soak artifacts preserved at %s", work)
			return
		}
		os.RemoveAll(work)
	}()
	storeDir := filepath.Join(work, "store")
	ckptDir := filepath.Join(work, "checkpoints")

	// Build the actual binary under test.
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
		cmd := exec.Command(bin,
			"-addr", addr, "-store", storeDir, "-checkpoints", ckptDir,
			"-max-campaigns", "2", "-queue", "4", "-tenant-quota", "4",
			"-retry-after", "1s")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start afterimage-serve: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := cl.WaitReady(ctx); err != nil {
			t.Fatalf("server never became ready: %v", err)
		}
		return cmd
	}

	// victim is the campaign the kill lands on: enough points that at least
	// one is checkpointed while others remain.
	victim := server.CampaignSpec{
		Tenant: "soak", Attack: "v1-thread", Seed: 900,
		Bits: 16, Intensities: []float64{0, 1, 2, 3, 4, 5},
	}
	victimKey := victim.Normalize().Key()

	// Golden for the victim: the same campaign, in-process, undisturbed.
	golden := func() []byte {
		e := newEnv(t, nil)
		res, err := e.cl.Submit(context.Background(), victim)
		if err != nil {
			t.Fatalf("golden run: %v", err)
		}
		return res.Body
	}()

	// ---- Generation 1: concurrent load, then SIGKILL mid-victim. ----
	gen1 := start()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	small := make(map[int64][]byte)
	var smu sync.Mutex
	for seed := int64(901); seed <= 904; seed++ {
		seed := seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cl.SubmitWait(ctx, tinySpec(seed), 30)
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return
			}
			smu.Lock()
			small[seed] = res.Body
			smu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	baseline := metricValue(t, cl, "runner.checkpoint.writes")

	// Launch the victim and kill the server once its first point lands.
	go cl.Submit(ctx, victim) // the kill will sever this request; ignore it
	deadline := time.Now().Add(60 * time.Second)
	for metricValue(t, cl, "runner.checkpoint.writes") <= baseline {
		if time.Now().After(deadline) {
			t.Fatal("victim campaign never checkpointed a point")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := gen1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	gen1.Wait()
	interrupted := fileExists(filepath.Join(ckptDir, victimKey+".ckpt"))

	// ---- Generation 2: restart over the same state. ----
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

	// Everything completed before the kill is a hit, byte for byte.
	for seed, want := range small {
		res, err := cl.SubmitWait(ctx, tinySpec(seed), 30)
		if err != nil {
			t.Fatalf("seed %d after restart: %v", seed, err)
		}
		if res.Source != "hit" {
			t.Errorf("seed %d after restart: source %q, want hit", seed, res.Source)
		}
		if !bytes.Equal(res.Body, want) {
			t.Errorf("seed %d after restart: bytes differ from pre-kill result", seed)
		}
	}

	// The interrupted victim completes — resumed, and identical to golden.
	res, err := cl.SubmitWait(ctx, victim, 30)
	if err != nil {
		t.Fatalf("victim after restart: %v", err)
	}
	if !bytes.Equal(res.Body, golden) {
		t.Errorf("victim after restart diverged from uninterrupted run (%d vs %d bytes)",
			len(res.Body), len(golden))
	}
	if interrupted {
		if resumed := metricValue(t, cl, "runner.jobs.resumed"); resumed < 1 {
			t.Errorf("runner.jobs.resumed = %d, want >= 1 (checkpoint existed but was not used)", resumed)
		}
	} else {
		// The kill landed after the victim finished; the restart must then
		// have served it straight from the store.
		if res.Source != "hit" {
			t.Errorf("victim finished pre-kill but source is %q, want hit", res.Source)
		}
	}
}

// freeAddr reserves an ephemeral localhost port and returns host:port.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// metricValue scrapes one registry counter from the live server's /metrics
// exposition, where it is the afterimage_<name, dots→_>_total family.
func metricValue(t *testing.T, cl *client.Client, name string) uint64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	text, err := cl.Prometheus(ctx)
	if err != nil {
		return 0 // mid-kill scrapes may fail; callers poll
	}
	family := "afterimage_" + strings.ReplaceAll(name, ".", "_") + "_total"
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == family {
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("unparseable metric line %q: %v", sc.Text(), err)
			}
			return v
		}
	}
	return 0
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
