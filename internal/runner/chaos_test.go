package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"afterimage/internal/sim"
	"afterimage/internal/vfs"
)

// chaosJobs builds n deterministic jobs of which every third fails
// transiently on its first attempts — the campaign shape the kill/resume
// guarantee must hold for.
func chaosJobs(n int) []Job {
	var jobs []Job
	for i := 0; i < n; i++ {
		i := i
		jobs = append(jobs, Job{
			Key: fmt.Sprintf("point-%02d", i),
			Run: func(ctx context.Context, attempt int) (any, error) {
				if i%3 == 1 && attempt < i%DefaultMaxAttempts {
					return nil, &sim.SimFault{Kind: sim.FaultBudget, Cycle: uint64(i), Msg: "injected"}
				}
				// A value that depends on the attempt distinguishes "resumed
				// the recorded result" from "silently recomputed".
				return map[string]int{"i": i, "v": i*i + attempt}, nil
			},
		})
	}
	return jobs
}

// TestChaosKillResumeDeterministic kills a checkpointed campaign at random
// completion counts and resumes it, asserting the final results are
// byte-identical to a straight-through run every time.
func TestChaosKillResumeDeterministic(t *testing.T) {
	jobs := chaosJobs(18)
	straight, err := Run(context.Background(), jobs, Options{Workers: 4, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	golden, _ := json.Marshal(straight)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		path := filepath.Join(t.TempDir(), "chaos.ckpt")
		fp := Fingerprint(map[string]any{"campaign": "chaos", "jobs": len(jobs)})
		killAfter := 1 + rng.Intn(len(jobs)-1)

		ctx, cancel := context.WithCancel(context.Background())
		_, err := Run(ctx, jobs, Options{
			Workers:        3,
			Sleep:          noSleep,
			CheckpointPath: path,
			Fingerprint:    fp,
			OnComplete: func(completed int) {
				if completed >= killAfter {
					cancel() // the "kill" moment: Run writes what completed before it returns
				}
			},
		})
		cancel()
		if err == nil {
			// The kill landed after the last completion: the campaign
			// completed. Still a valid trial — resume below must be a no-op.
			t.Logf("trial %d: campaign outran the kill at %d", trial, killAfter)
		}

		resumed, err := Run(context.Background(), jobs, Options{
			Workers:        3,
			Sleep:          noSleep,
			CheckpointPath: path,
			Fingerprint:    fp,
			Resume:         true,
		})
		if err != nil {
			t.Fatalf("trial %d (kill at %d): resume failed: %v", trial, killAfter, err)
		}
		raw, _ := json.Marshal(resumed)
		if string(raw) != string(golden) {
			t.Fatalf("trial %d (kill at %d): resumed campaign diverged:\n%s\nvs straight-through\n%s",
				trial, killAfter, raw, golden)
		}
	}
}

// TestChaosTornWriteSurvival simulates a kill mid-write: the temp file holds
// garbage but the renamed checkpoint stays intact, and resume still works.
func TestChaosTornWriteSurvival(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	fp := Fingerprint("torn")
	jobs := chaosJobs(5)
	if _, err := Run(context.Background(), jobs[:3], Options{
		CheckpointPath: path, Fingerprint: fp, Sleep: noSleep,
	}); err != nil {
		t.Fatal(err)
	}
	// A crash mid-write leaves a partial temp file next to the checkpoint.
	if err := writeGarbage(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), jobs, Options{
		CheckpointPath: path, Fingerprint: fp, Resume: true, Sleep: noSleep,
	})
	if err != nil {
		t.Fatalf("resume after torn write: %v", err)
	}
	for i, r := range res[:3] {
		if !r.Resumed {
			t.Fatalf("job %d lost to the torn write: %+v", i, r)
		}
	}
}

func writeGarbage(path string) error {
	return os.WriteFile(path, []byte(`{"schema": "afterimage-runner-ch`), 0o644)
}

// TestCheckpointWriteDurable pins the write sequence the power-loss guarantee
// rides on: after every checkpoint write the temp file is gone (renamed, not
// copied-and-forgotten), the target parses, and the parent-directory fsync
// succeeded — a failure there would have surfaced as a campaign error.
func TestCheckpointWriteDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "durable.ckpt")
	fp := Fingerprint("durable")
	if _, err := Run(context.Background(), chaosJobs(4), Options{
		CheckpointPath: path, Fingerprint: fp, Sleep: noSleep,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived the rename: %v", err)
	}
	keys, err := CompletedKeys(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after durable write: %v", err)
	}
	if len(keys) != 4 {
		t.Fatalf("checkpoint holds %d jobs, want 4", len(keys))
	}
	if err := vfs.OS().SyncDir(dir); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
	if err := vfs.OS().SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory should fail")
	}
}
