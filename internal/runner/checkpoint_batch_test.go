package runner

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

// slowJob is intJob(i) taking d of attempt time.
func slowJob(i int, d time.Duration) Job {
	j := intJob(i)
	run := j.Run
	j.Run = func(ctx context.Context, attempt int) (any, error) {
		time.Sleep(d)
		return run(ctx, attempt)
	}
	return j
}

// TestCheckpointQuickRunCallCounts: completions far below the bound are
// written once, when Run returns: one publish of a document holding every
// job. An ephemeral run's completions are never written at all.
func TestCheckpointQuickRunCallCounts(t *testing.T) {
	for _, ephemeral := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "quick.ckpt")
		fp := Fingerprint("quick")
		jobs := chaosJobs(5)
		fsys := newCountingFS()
		reg := telemetry.NewRegistry()
		if _, err := Run(context.Background(), jobs, Options{
			Workers: 2, CheckpointPath: path, Fingerprint: fp, FS: fsys,
			Ephemeral: ephemeral, Metrics: reg, Sleep: noSleep,
		}); err != nil {
			t.Fatal(err)
		}
		want := map[string]int{"create": 1, "write": 1, "sync": 1, "rename": 1, "syncdir": 1, "close": 1}
		wantWrites := uint64(1)
		if ephemeral {
			want, wantWrites = map[string]int{}, 0
		}
		if !reflect.DeepEqual(fsys.calls, want) {
			t.Fatalf("ephemeral=%v: filesystem calls %v, want %v", ephemeral, fsys.calls, want)
		}
		if v := counterValue(t, reg, "runner.checkpoint.writes"); v != wantWrites {
			t.Fatalf("ephemeral=%v: runner.checkpoint.writes = %d, want %d", ephemeral, v, wantWrites)
		}
		if ephemeral {
			continue
		}
		got, err := ReadCheckpoint(path, fp)
		if err != nil || len(got) != len(jobs) {
			t.Fatalf("checkpoint holds %d jobs (%v), want all %d", len(got), err, len(jobs))
		}
	}
}

// TestCheckpointBatchAppendsPending: a completion that takes the compute at
// risk past the bound makes every pending completion durable together. The
// first such write publishes the document; a later one appends all the
// completions since with one write and one fsync. Until then OnComplete
// reports completions the file does not hold yet.
func TestCheckpointBatchAppendsPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.ckpt")
	fp := Fingerprint("batch")
	slow := checkpointBound + 10*time.Millisecond
	jobs := []Job{slowJob(0, slow), intJob(1), intJob(2), intJob(3), slowJob(4, slow)}
	fsys := newCountingFS()
	reg := telemetry.NewRegistry()
	var durable []int
	if _, err := Run(context.Background(), jobs, Options{
		CheckpointPath: path, Fingerprint: fp, FS: fsys, Metrics: reg, Sleep: noSleep,
		OnComplete: func(completed int) {
			got, err := ReadCheckpoint(path, fp)
			if err != nil {
				t.Errorf("after %d completions: %v", completed, err)
			}
			durable = append(durable, len(got))
		},
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 1, 1, 5}; !reflect.DeepEqual(durable, want) {
		t.Fatalf("jobs on disk at each completion = %v, want %v", durable, want)
	}
	want := map[string]int{"create": 1, "write": 2, "sync": 2, "rename": 1, "syncdir": 1, "close": 1}
	if !reflect.DeepEqual(fsys.calls, want) {
		t.Fatalf("filesystem calls %v, want %v", fsys.calls, want)
	}
	if v := counterValue(t, reg, "runner.checkpoint.writes"); v != 2 {
		t.Fatalf("runner.checkpoint.writes = %d, want 2", v)
	}
}

// TestCheckpointCanceledEphemeralRunWritesCompleted: a canceled run, even an
// ephemeral one, makes every completed job durable before Run returns, and
// never the job in flight at the cancel.
func TestCheckpointCanceledEphemeralRunWritesCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "canceled.ckpt")
	fp := Fingerprint("canceled")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	inFlight := Job{Key: "in-flight", Run: func(jctx context.Context, attempt int) (any, error) {
		close(started)
		<-jctx.Done()
		return nil, jctx.Err()
	}}
	jobs := []Job{inFlight}
	for i := 0; i < 6; i++ {
		i := i
		j := intJob(i)
		run := j.Run
		j.Run = func(jctx context.Context, attempt int) (any, error) {
			<-started // the in-flight job holds the other worker
			return run(jctx, attempt)
		}
		jobs = append(jobs, j)
	}
	fsys := newCountingFS()
	res, err := Run(ctx, jobs, Options{
		Workers: 2, CheckpointPath: path, Fingerprint: fp, FS: fsys,
		Ephemeral: true, Sleep: noSleep,
		OnComplete: func(completed int) {
			if completed == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	var done []string
	for _, r := range res {
		if !r.Skipped {
			done = append(done, r.Key)
		}
	}
	if res[0].Key != "in-flight" || !res[0].Skipped || len(done) != 3 {
		t.Fatalf("results %+v, want the in-flight job skipped and 3 completed", res)
	}
	keys, err := CompletedKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(done)
	if !reflect.DeepEqual(keys, done) {
		t.Fatalf("checkpoint holds %v, want the completed jobs %v", keys, done)
	}
	want := map[string]int{"create": 1, "write": 1, "sync": 1, "rename": 1, "syncdir": 1, "close": 1}
	if !reflect.DeepEqual(fsys.calls, want) {
		t.Fatalf("filesystem calls %v, want one publish %v", fsys.calls, want)
	}
}

// writeFailFS fails every file write after the first, so a run publishes
// its document and then cannot append.
type writeFailFS struct {
	vfs.FS
	mu     sync.Mutex
	writes int
}

func (f *writeFailFS) Create(path string) (vfs.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return writeFailFile{File: file, fs: f}, nil
}

type writeFailFile struct {
	vfs.File
	fs *writeFailFS
}

func (w writeFailFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.writes++; w.fs.writes > 1 {
		return 0, errors.New("injected: write failed")
	}
	return w.File.Write(p)
}

// TestCheckpointBatchWriteFailureDegradesOnce: a batched append that fails
// turns checkpointing off and counts runner.checkpoint.degraded once; the
// results match a run without a checkpoint byte for byte, and the file
// keeps what the first write made durable.
func TestCheckpointBatchWriteFailureDegradesOnce(t *testing.T) {
	jobs := []Job{slowJob(0, checkpointBound+10*time.Millisecond)}
	for i := 1; i < 6; i++ {
		jobs = append(jobs, intJob(i))
	}
	clean, err := Run(context.Background(), jobs, Options{Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fail.ckpt")
	fp := Fingerprint("fail")
	reg := telemetry.NewRegistry()
	res, err := Run(context.Background(), jobs, Options{
		CheckpointPath: path, Fingerprint: fp, FS: &writeFailFS{FS: vfs.OS()},
		Metrics: reg, Sleep: noSleep,
	})
	if err != nil {
		t.Fatalf("campaign failed on a checkpoint append fault: %v", err)
	}
	a, _ := json.Marshal(clean)
	b, _ := json.Marshal(res)
	if string(a) != string(b) {
		t.Fatalf("a failed append changed the results:\nclean  %s\nfailed %s", a, b)
	}
	if v := counterValue(t, reg, "runner.checkpoint.degraded"); v != 1 {
		t.Fatalf("runner.checkpoint.degraded = %d, want 1", v)
	}
	if v := counterValue(t, reg, "runner.checkpoint.writes"); v != 1 {
		t.Fatalf("runner.checkpoint.writes = %d, want the 1 publish", v)
	}
	if keys, err := CompletedKeys(path); err != nil || len(keys) != 1 {
		t.Fatalf("checkpoint keys %v (%v), want the published job only", keys, err)
	}
}

// TestCheckpointOnCompleteOncePerCompletion: OnComplete fires once per job
// completed in the run, counting resumed jobs, whether the checkpoint is
// kept, ephemeral or absent.
func TestCheckpointOnCompleteOncePerCompletion(t *testing.T) {
	jobs := chaosJobs(6)
	for _, mode := range []string{"none", "kept", "ephemeral", "resumed"} {
		path := filepath.Join(t.TempDir(), "hook.ckpt")
		fp := Fingerprint("hook")
		o := Options{Workers: 3, Sleep: noSleep, Fingerprint: fp}
		first := 1
		switch mode {
		case "kept":
			o.CheckpointPath = path
		case "ephemeral":
			o.CheckpointPath, o.Ephemeral = path, true
		case "resumed":
			if _, err := Run(context.Background(), jobs[:2], Options{
				CheckpointPath: path, Fingerprint: fp, Sleep: noSleep,
			}); err != nil {
				t.Fatal(err)
			}
			o.CheckpointPath, o.Ephemeral, o.Resume = path, true, true
			first = 3
		}
		var got []int
		o.OnComplete = func(completed int) { got = append(got, completed) }
		if _, err := Run(context.Background(), jobs, o); err != nil {
			t.Fatal(err)
		}
		var want []int
		for n := first; n <= len(jobs); n++ {
			want = append(want, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: OnComplete saw %v, want %v", mode, got, want)
		}
	}
}
