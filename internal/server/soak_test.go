package server_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
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
		var cmd *exec.Cmd
		cmd, addr = startServer(t, bin, addr, os.Stderr, func(addr string) []string {
			return []string{"-addr", addr, "-store", storeDir, "-checkpoints", ckptDir,
				"-max-campaigns", "2", "-queue", "4", "-tenant-quota", "4",
				"-retry-after", "1s"}
		})
		cl.Base = "http://" + addr
		return cmd
	}

	// victim is the campaign the kill lands on: enough points that at least
	// one is checkpointed while others remain. Points are written once
	// their compute passes the runner's checkpoint bound (100 ms), so each
	// point is sized past it: a 4,096-bit v1-thread point took about 145 ms
	// on a 2-vCPU host, so the first write lands after the first point,
	// well before the campaign ends.
	victim := server.CampaignSpec{
		Tenant: "soak", Attack: "v1-thread", Seed: 900,
		Bits: 4096, Intensities: []float64{0, 1, 2, 3, 4, 5},
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

	// Launch the victim and kill the server once its first checkpoint write
	// lands.
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

// TestStartServerRetriesTakenPort: a server started on a port another
// listener holds exits before it is ready, and startServer starts it again
// on a new port, which it returns.
func TestStartServerRetriesTakenPort(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the real binary")
	}
	work := t.TempDir()
	bin := filepath.Join(work, "afterimage-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/afterimage-serve")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build afterimage-serve: %v\n%s", err, out)
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cmd, addr := startServer(t, bin, taken.Addr().String(), io.Discard, func(addr string) []string {
		return []string{"-addr", addr, "-store", filepath.Join(work, "store"),
			"-checkpoints", filepath.Join(work, "checkpoints")}
	})
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	if addr == taken.Addr().String() {
		t.Fatalf("startServer returned the taken address %s", addr)
	}
}

// freeAddr picks an ephemeral localhost port and returns host:port. Its
// probe listener is closed before the caller's server binds the port, so
// another process can take it in between; startServer recovers from that.
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

// startServer starts the server binary bin with args(addr), copying its
// output to out, and waits up to 30 s for it to answer /healthz on addr.
// When the server exits before it is ready because addr is already in use
// (taken between freeAddr's probe and the server's bind), startServer picks
// a new port and starts again, up to four more times, so callers must
// re-point their clients at the address it returns.
func startServer(t *testing.T, bin, addr string, out io.Writer, args func(addr string) []string) (*exec.Cmd, string) {
	t.Helper()
	for try := 0; ; try++ {
		var logged lockedBuffer
		cmd := exec.Command(bin, args(addr)...)
		cmd.Stdout = out
		cmd.Stderr = io.MultiWriter(out, &logged)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", filepath.Base(bin), err)
		}
		cl := client.New("http://" + addr)
		for deadline := time.Now().Add(30 * time.Second); ; {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			err := cl.WaitReady(ctx)
			cancel()
			if err == nil {
				return cmd, addr
			}
			if strings.Contains(logged.String(), "address already in use") {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("%s never became ready on %s: %v", filepath.Base(bin), addr, err)
			}
		}
		cmd.Wait()
		if try == 4 {
			t.Fatalf("%s found its address in use %d times", filepath.Base(bin), try+1)
		}
		t.Logf("%s: %s was taken before the server bound it; retrying on a new port", filepath.Base(bin), addr)
		addr = freeAddr(t)
	}
}

// lockedBuffer keeps the first 64 KiB written to it, enough for a server's
// start-up output, and is safe for one writer and one reader.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if room := 64<<10 - b.buf.Len(); room > 0 {
		b.buf.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
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
