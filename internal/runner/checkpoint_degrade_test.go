package runner

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

func counterValue(t *testing.T, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	v, _ := reg.Snapshot().Get(name)
	return v
}

// TestCheckpointWriteFailureDegradesNotFails: a disk that refuses every
// checkpoint write costs the campaign its resumability and nothing else —
// every job completes, Run returns no error, and the degradation is counted.
func TestCheckpointWriteFailureDegradesNotFails(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, intJob(i))
	}
	res, err := Run(context.Background(), jobs, Options{
		Workers:        3,
		CheckpointPath: filepath.Join(dir, "campaign.ckpt"),
		FS:             vfs.NewFaultFS(vfs.FaultConfig{Seed: 11, EIORate: 1}, nil),
		Metrics:        reg,
		Sleep:          noSleep,
	})
	if err != nil {
		t.Fatalf("campaign failed on checkpoint-write faults: %v", err)
	}
	for i, r := range res {
		if r.Key != jobs[i].Key || r.Degraded || r.Skipped {
			t.Fatalf("result %d = %+v, want completed", i, r)
		}
	}
	if v := counterValue(t, reg, "runner.checkpoint.degraded"); v != 1 {
		t.Fatalf("runner.checkpoint.degraded = %d, want 1 (disabled after first failure)", v)
	}
	if v := counterValue(t, reg, "runner.checkpoint.writes"); v != 0 {
		t.Fatalf("runner.checkpoint.writes = %d, want 0", v)
	}
	// No checkpoint file and no temp litter survive the degraded run.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("failed checkpoint write leaked temp file %s", e.Name())
		}
	}
}

// TestCheckpointRenameFailureDegradesAndCleansTemp: a fault at the publish
// step (rename) also degrades cleanly and removes the fully-written temp.
func TestCheckpointRenameFailureDegradesAndCleansTemp(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	res, err := Run(context.Background(), []Job{intJob(0), intJob(1)}, Options{
		CheckpointPath: filepath.Join(dir, "campaign.ckpt"),
		FS:             vfs.NewFaultFS(vfs.FaultConfig{Seed: 11, RenameFailRate: 1}, nil),
		Metrics:        reg,
		Sleep:          noSleep,
	})
	if err != nil {
		t.Fatalf("campaign failed on checkpoint rename fault: %v", err)
	}
	if len(res) != 2 || res[0].Degraded || res[1].Degraded {
		t.Fatalf("results = %+v, want 2 completed", res)
	}
	if v := counterValue(t, reg, "runner.checkpoint.degraded"); v != 1 {
		t.Fatalf("runner.checkpoint.degraded = %d, want 1", v)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("failed checkpoint publish leaked temp file %s", e.Name())
		}
	}
}

// failReadFS fails every ReadFile with a disk error — the shape of a
// checkpoint the disk holds but will not return.
type failReadFS struct {
	vfs.FS
}

func (f failReadFS) ReadFile(string) ([]byte, error) {
	return nil, errors.New("injected: read error")
}

// TestCheckpointUnreadableDegradesToNoResume: a resume whose checkpoint read
// fails with a real I/O error (not absence) recomputes from scratch instead
// of failing — determinism makes the recomputed results identical.
func TestCheckpointUnreadableDegradesToNoResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.ckpt")
	fp := Fingerprint(map[string]int{"seed": 1})
	jobs := []Job{intJob(0), intJob(1), intJob(2)}

	// First run populates a real checkpoint.
	if _, err := Run(context.Background(), jobs, Options{
		CheckpointPath: path, Fingerprint: fp, Sleep: noSleep,
	}); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	res, err := Run(context.Background(), jobs, Options{
		CheckpointPath: path, Fingerprint: fp, Resume: true,
		FS:      failReadFS{vfs.OS()},
		Metrics: reg,
		Sleep:   noSleep,
	})
	if err != nil {
		t.Fatalf("campaign failed on unreadable checkpoint: %v", err)
	}
	for i, r := range res {
		if r.Resumed {
			t.Fatalf("result %d marked resumed with an unreadable checkpoint", i)
		}
	}
	if v := counterValue(t, reg, "runner.jobs.resumed"); v != 0 {
		t.Fatalf("runner.jobs.resumed = %d, want 0", v)
	}
	if v := counterValue(t, reg, "runner.checkpoint.degraded"); v != 1 {
		t.Fatalf("runner.checkpoint.degraded = %d, want 1", v)
	}
}

// TestCheckpointCorruptUnquarantinableDegradesToNoResume: a torn checkpoint
// that the disk will not let be renamed aside does not wedge the campaign.
// The resume runs fresh, nothing is marked resumed, and the campaign counts
// once in runner.checkpoint.degraded, although its checkpoint writes fail
// too.
func TestCheckpointCorruptUnquarantinableDegradesToNoResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	if err := os.WriteFile(path, []byte(`{"schema": "afterimage-runner-check`), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	res, err := Run(context.Background(), []Job{intJob(0), intJob(1), intJob(2)}, Options{
		CheckpointPath: path, Fingerprint: Fingerprint("torn"), Resume: true,
		FS:      vfs.NewFaultFS(vfs.FaultConfig{Seed: 3, RenameFailRate: 1}, nil),
		Metrics: reg,
		Sleep:   noSleep,
	})
	if err != nil {
		t.Fatalf("campaign failed on an unquarantinable corrupt checkpoint: %v", err)
	}
	for i, r := range res {
		if r.Resumed || r.Degraded || r.Skipped {
			t.Fatalf("result %d = %+v, want completed fresh", i, r)
		}
	}
	if v := counterValue(t, reg, "runner.checkpoint.degraded"); v != 1 {
		t.Fatalf("runner.checkpoint.degraded = %d, want 1", v)
	}
	if v := counterValue(t, reg, "runner.checkpoint.corrupt"); v != 0 {
		t.Fatalf("runner.checkpoint.corrupt = %d, want 0 (nothing was quarantined)", v)
	}
}

// TestCheckpointFaultsPreserveByteIdentity: the same campaign run over a
// clean disk and over a checkpoint-hostile disk marshals to identical bytes —
// checkpoint degradation is invisible in the results.
func TestCheckpointFaultsPreserveByteIdentity(t *testing.T) {
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, intJob(i))
	}
	clean, err := Run(context.Background(), jobs, Options{Workers: 4, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(context.Background(), jobs, Options{
		Workers:        4,
		CheckpointPath: filepath.Join(t.TempDir(), "c.ckpt"),
		FS:             vfs.NewFaultFS(vfs.FaultConfig{Seed: 4, ENOSPCRate: 1}, nil),
		Sleep:          noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(clean)
	b, _ := json.Marshal(faulty)
	if string(a) != string(b) {
		t.Fatalf("checkpoint faults changed campaign results:\nclean  %s\nfaulty %s", a, b)
	}
}

// TestCheckpointIntermittentFaultsKeepCheckpointValid: under mixed sub-1
// fault rates some checkpoint writes land and some fail; whatever state the
// file is in, it is either absent or a complete, parseable checkpoint —
// atomic publication holds under injected faults.
func TestCheckpointIntermittentFaultsKeepCheckpointValid(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.ckpt")
	fp := Fingerprint("intermittent")
	var jobs []Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, intJob(i))
	}
	_, err := Run(context.Background(), jobs, Options{
		CheckpointPath: path, Fingerprint: fp,
		FS:    vfs.NewFaultFS(vfs.FaultConfig{Seed: 21, EIORate: 0.4, RenameFailRate: 0.4}, nil),
		Sleep: noSleep,
	})
	if err != nil {
		t.Fatalf("campaign failed under intermittent checkpoint faults: %v", err)
	}
	if _, err := os.Stat(path); err == nil {
		if _, rerr := ReadCheckpoint(path, fp); rerr != nil {
			t.Fatalf("surviving checkpoint is not parseable: %v", rerr)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("intermittent faults leaked temp file %s", e.Name())
		}
	}
}
