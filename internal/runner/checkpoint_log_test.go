package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

// countingFS counts the filesystem calls a checkpointed run makes.
type countingFS struct {
	vfs.FS
	mu    sync.Mutex
	calls map[string]int
}

func newCountingFS() *countingFS { return &countingFS{FS: vfs.OS(), calls: make(map[string]int)} }

func (f *countingFS) count(op string) {
	f.mu.Lock()
	f.calls[op]++
	f.mu.Unlock()
}

func (f *countingFS) Create(path string) (vfs.File, error) {
	f.count("create")
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return countingFile{File: file, fs: f}, nil
}

func (f *countingFS) ReadFile(path string) ([]byte, error) {
	f.count("read")
	return f.FS.ReadFile(path)
}

func (f *countingFS) Remove(path string) error {
	f.count("remove")
	return f.FS.Remove(path)
}

func (f *countingFS) Rename(oldpath, newpath string) error {
	f.count("rename")
	return f.FS.Rename(oldpath, newpath)
}

func (f *countingFS) SyncDir(path string) error {
	f.count("syncdir")
	return f.FS.SyncDir(path)
}

type countingFile struct {
	vfs.File
	fs *countingFS
}

func (c countingFile) Write(p []byte) (int, error) {
	c.fs.count("write")
	return c.File.Write(p)
}

func (c countingFile) Sync() error {
	c.fs.count("sync")
	return c.File.Sync()
}

func (c countingFile) Close() error {
	c.fs.count("close")
	return c.File.Close()
}

// writeEachCompletion lowers the bound to zero for the rest of the test, so
// every completion is written on its own.
func writeEachCompletion(t *testing.T) {
	atRiskBound = 0
	t.Cleanup(func() { atRiskBound = checkpointBound })
}

// TestCheckpointLogCallCounts: with the bound at zero, a run of five
// completions publishes the document once (one create, one rename, one
// directory fsync) and appends the other four, with one write and one fsync
// per completion, and closes its handle before returning. After each
// OnComplete the file holds exactly the jobs completed so far, and each
// durable write is timed.
func TestCheckpointLogCallCounts(t *testing.T) {
	writeEachCompletion(t)
	path := filepath.Join(t.TempDir(), "log.ckpt")
	fp := Fingerprint("log")
	jobs := chaosJobs(5)
	fsys := newCountingFS()
	reg := telemetry.NewRegistry()
	_, err := Run(context.Background(), jobs, Options{
		CheckpointPath: path, Fingerprint: fp, FS: fsys, Metrics: reg, Sleep: noSleep,
		OnComplete: func(completed int) { // on a runner worker goroutine: no t.Fatal
			got, err := ReadCheckpoint(path, fp)
			if err != nil {
				t.Errorf("after %d completions: %v", completed, err)
				return
			}
			if len(got) != completed {
				t.Errorf("after %d completions the checkpoint holds %d jobs", completed, len(got))
			}
			for _, j := range jobs[:completed] {
				if _, ok := got[j.Key]; !ok {
					t.Errorf("after %d completions the checkpoint lacks %s", completed, j.Key)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"create": 1, "write": 5, "sync": 5, "rename": 1, "syncdir": 1, "close": 1}
	if !reflect.DeepEqual(fsys.calls, want) {
		t.Fatalf("filesystem calls %v, want %v", fsys.calls, want)
	}
	snap := reg.Snapshot()
	writes, _ := snap.Get("runner.checkpoint.writes")
	h, ok := snap.Histograms["runner.checkpoint.us"]
	if writes != 5 || !ok || h.Count != writes {
		t.Fatalf("runner.checkpoint.writes = %d, runner.checkpoint.us count = %d (present %v), want 5 each", writes, h.Count, ok)
	}
}

// recordLine is the line the log appends for r.
func recordLine(t *testing.T, r JobResult) []byte {
	t.Helper()
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// TestCheckpointTornTailResumes: a crash mid-append leaves half a record, a
// record without its newline, or a zero-filled tail after the complete
// records. A resume keeps every complete record, recomputes the rest with
// byte-identical results, and its first write leaves a file without the
// torn tail.
func TestCheckpointTornTailResumes(t *testing.T) {
	jobs := chaosJobs(6)
	straight, err := Run(context.Background(), jobs, Options{Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	golden, _ := json.Marshal(straight)
	whole := recordLine(t, straight[3])
	half := whole[:len(whole)/2]

	for name, tail := range map[string][]byte{
		"half-record": half,
		"no-newline":  whole[:len(whole)-1],
		"zero-filled": make([]byte, 96),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.ckpt")
			fp := Fingerprint("torn-tail")
			if _, err := Run(context.Background(), jobs[:3], Options{
				CheckpointPath: path, Fingerprint: fp, Sleep: noSleep,
			}); err != nil {
				t.Fatal(err)
			}
			appendBytes(t, path, tail)

			reg := telemetry.NewRegistry()
			res, err := Run(context.Background(), jobs, Options{
				CheckpointPath: path, Fingerprint: fp, Resume: true, Metrics: reg, Sleep: noSleep,
			})
			if err != nil {
				t.Fatalf("resume over a torn tail: %v", err)
			}
			if v := counterValue(t, reg, "runner.jobs.resumed"); v != 3 {
				t.Fatalf("runner.jobs.resumed = %d, want the 3 complete records", v)
			}
			if v := counterValue(t, reg, "runner.checkpoint.corrupt"); v != 0 {
				t.Fatalf("runner.checkpoint.corrupt = %d, want 0 (a torn tail is not damage)", v)
			}
			if raw, _ := json.Marshal(res); string(raw) != string(golden) {
				t.Fatalf("resumed campaign diverged:\n%s\nvs straight-through\n%s", raw, golden)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(raw, []byte("\n")) || bytes.IndexByte(raw, 0) >= 0 {
				t.Fatalf("the resumed run left the torn tail on disk:\n%q", raw)
			}
			if keys, err := CompletedKeys(path); err != nil || len(keys) != len(jobs) {
				t.Fatalf("checkpoint keys after resume = %v (%v), want all %d", keys, err, len(jobs))
			}
		})
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDamagedRecordsQuarantined: a line between two records that
// is not a record is damage, not a torn append. The log is quarantined as
// .corrupt and the campaign recomputes, as for a damaged document. The
// bound is zero, so the first run leaves records after its document.
func TestCheckpointDamagedRecordsQuarantined(t *testing.T) {
	writeEachCompletion(t)
	jobs := chaosJobs(4)
	straight, err := Run(context.Background(), jobs, Options{Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	golden, _ := json.Marshal(straight)

	for name, bad := range map[string]string{
		"garbage":   "garbage\n",
		"empty-key": "{}\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "damaged.ckpt")
			fp := Fingerprint("damaged")
			if _, err := Run(context.Background(), jobs[:3], Options{
				CheckpointPath: path, Fingerprint: fp, Sleep: noSleep,
			}); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Put the bad line before the last record.
			cut := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
			damaged := append(append(append([]byte{}, raw[:cut]...), bad...), raw[cut:]...)
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}

			reg := telemetry.NewRegistry()
			res, err := Run(context.Background(), jobs, Options{
				CheckpointPath: path, Fingerprint: fp, Resume: true, Metrics: reg, Sleep: noSleep,
			})
			if err != nil {
				t.Fatalf("resume over a damaged log: %v", err)
			}
			if v := counterValue(t, reg, "runner.checkpoint.corrupt"); v != 1 {
				t.Fatalf("runner.checkpoint.corrupt = %d, want 1", v)
			}
			if v := counterValue(t, reg, "runner.jobs.resumed"); v != 0 {
				t.Fatalf("runner.jobs.resumed = %d, want 0 (the campaign recomputes)", v)
			}
			if got, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(got, damaged) {
				t.Fatalf("damaged log not quarantined intact: %v", err)
			}
			if raw, _ := json.Marshal(res); string(raw) != string(golden) {
				t.Fatalf("recomputed campaign diverged:\n%s\nvs straight-through\n%s", raw, golden)
			}
		})
	}
}

// TestCheckpointV1DocumentResumes: a checkpoint written before the log —
// one /1 document, indented, with no trailing newline — still resumes, and
// the resumed run's first write replaces it with a /2 log.
func TestCheckpointV1DocumentResumes(t *testing.T) {
	jobs := chaosJobs(5)
	straight, err := Run(context.Background(), jobs, Options{Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	golden, _ := json.Marshal(straight)

	path := filepath.Join(t.TempDir(), "v1.ckpt")
	fp := Fingerprint("v1")
	completed := make(map[string]JobResult)
	for _, r := range straight[:3] {
		completed[r.Key] = r
	}
	raw, err := json.MarshalIndent(checkpointFile{
		Schema: "afterimage-runner-checkpoint/1", Fingerprint: fp, Completed: completed,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadCheckpoint(path, fp); err != nil || len(got) != 3 {
		t.Fatalf("ReadCheckpoint of a /1 document: %d jobs, %v", len(got), err)
	}

	reg := telemetry.NewRegistry()
	res, err := Run(context.Background(), jobs, Options{
		CheckpointPath: path, Fingerprint: fp, Resume: true, Metrics: reg, Sleep: noSleep,
	})
	if err != nil {
		t.Fatalf("resume of a /1 checkpoint: %v", err)
	}
	if v := counterValue(t, reg, "runner.jobs.resumed"); v != 3 {
		t.Fatalf("runner.jobs.resumed = %d, want 3", v)
	}
	if raw, _ := json.Marshal(res); string(raw) != string(golden) {
		t.Fatalf("resumed campaign diverged:\n%s\nvs straight-through\n%s", raw, golden)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(after, []byte(`"schema": "`+CheckpointSchema+`"`)) {
		t.Fatalf("the resumed run did not rewrite the checkpoint as %s:\n%s", CheckpointSchema, after)
	}
}

// TestChaosTornAppendQuarantinedOnResume: a torn append the disk reported
// as written (a FaultFS torn write) leaves a cut-off record that the next
// append runs into, so the log is damaged for the rest of the run. A resume
// quarantines it and recomputes the whole campaign, with byte-identical
// results. This is the log's one trade-off against rewriting the whole file
// per completion, where the next write would have replaced the torn one.
// The bound is zero, so each completion is its own append.
func TestChaosTornAppendQuarantinedOnResume(t *testing.T) {
	writeEachCompletion(t)
	jobs := chaosJobs(4)
	straight, err := Run(context.Background(), jobs, Options{Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	golden, _ := json.Marshal(straight)

	path := filepath.Join(t.TempDir(), "torn-append.ckpt")
	fp := Fingerprint("torn-append")
	// The temp file's fault slots: 0 create, 1 document write, 2 sync,
	// 3 rename, then each append's write and sync (4, 5), (6, 7), (8, 9).
	// Pick a seed that keeps the document whole, tears a good part off the
	// first append and lets the later appends land.
	cfg := vfs.FaultConfig{TornWriteRate: 0.5}
	for cfg.Seed = 1; ; cfg.Seed++ {
		d := cfg.Schedule(path+".tmp", 10)
		if !d[1].Torn && d[4].Torn && d[4].TornFrac > 0.2 && !d[6].Torn && !d[8].Torn {
			break
		}
		if cfg.Seed == 10_000 {
			t.Fatal("no seed gives the wanted schedule")
		}
	}
	if _, err := Run(context.Background(), jobs, Options{
		CheckpointPath: path, Fingerprint: fp, FS: vfs.NewFaultFS(cfg, nil), Sleep: noSleep,
	}); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	res, err := Run(context.Background(), jobs, Options{
		CheckpointPath: path, Fingerprint: fp, Resume: true, Metrics: reg, Sleep: noSleep,
	})
	if err != nil {
		t.Fatalf("resume over a torn append: %v", err)
	}
	if v := counterValue(t, reg, "runner.checkpoint.corrupt"); v != 1 {
		t.Fatalf("runner.checkpoint.corrupt = %d, want 1", v)
	}
	if v := counterValue(t, reg, "runner.jobs.resumed"); v != 0 {
		t.Fatalf("runner.jobs.resumed = %d, want 0", v)
	}
	if raw, _ := json.Marshal(res); string(raw) != string(golden) {
		t.Fatalf("recomputed campaign diverged:\n%s\nvs straight-through\n%s", raw, golden)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("torn log not quarantined: %v", err)
	}
}
