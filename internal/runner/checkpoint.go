package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"

	"afterimage/internal/vfs"
)

// CheckpointSchema versions the on-disk checkpoint format. A file carrying a
// different schema string is rejected rather than misread.
const CheckpointSchema = "afterimage-runner-checkpoint/1"

// checkpointFile is the persisted shape: which campaign this belongs to and
// every completed job keyed by its Key.
type checkpointFile struct {
	Schema      string               `json:"schema"`
	Fingerprint string               `json:"fingerprint"`
	Completed   map[string]JobResult `json:"completed"`
}

// checkpointState is the live handle: the completed map plus where to
// persist it and the filesystem to persist it through.
type checkpointState struct {
	path        string
	fingerprint string
	fs          vfs.FS
	completed   map[string]JobResult
	// degraded records that the campaign already counted in
	// runner.checkpoint.degraded, which counts campaigns, not faults.
	degraded bool
}

// degrade counts the campaign in runner.checkpoint.degraded, once however
// many checkpoint faults it meets.
func (st *checkpointState) degrade(c counters) {
	if !st.degraded {
		st.degraded = true
		c.checkpointDegraded.Inc()
	}
}

// openCheckpoint prepares checkpoint persistence at path through fsys. With
// resume set, an existing file is loaded and validated (schema and campaign
// fingerprint must match); otherwise any stale file is ignored and
// overwritten by the first write.
//
// An unparseable file is damage, not disagreement — every write is atomic,
// so torn JSON means the file was hurt after the fact (disk fault, partial
// copy). Failing would wedge the campaign permanently (each retry re-hits
// the same parse error), so the damaged file is quarantined beside the
// original as <path>.corrupt and the campaign resumes fresh; determinism
// makes the recomputed results identical. Each quarantine bumps the corrupt
// counter (runner.checkpoint.corrupt; nil is inert) so silent-recovery
// events still surface in /metrics. A checkpoint the disk will not return
// (EIO), or a damaged one the disk will not let be renamed aside, likewise
// degrades to no-resume — the campaign recomputes instead of failing on a
// fault the retry loop could never fix, and the next checkpoint write
// replaces the file — and counts the campaign in
// runner.checkpoint.degraded. Well-formed files that disagree (wrong
// schema, wrong fingerprint) still fail loudly: those are configuration
// errors a recompute would silently paper over.
func openCheckpoint(path, fingerprint string, resume bool, fsys vfs.FS, c counters, log *slog.Logger) (*checkpointState, error) {
	st := &checkpointState{
		path:        path,
		fingerprint: fingerprint,
		fs:          fsys,
		completed:   make(map[string]JobResult),
	}
	if !resume {
		return st, nil
	}
	raw, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		return st, nil // nothing to resume from; start fresh
	}
	if err != nil {
		st.degrade(c)
		log.Warn("checkpoint unreadable; resuming without it (campaign recomputes)",
			"path", path, "err", err)
		return st, nil
	}
	var f checkpointFile
	if err := json.Unmarshal(raw, &f); err != nil {
		if qerr := fsys.Rename(path, path+".corrupt"); qerr != nil {
			st.degrade(c)
			log.Warn("checkpoint corrupt and could not be quarantined; resuming without it (the next checkpoint write replaces it)",
				"path", path, "err", err, "quarantine_err", qerr)
			return st, nil
		}
		c.checkpointCorrupt.Inc()
		return st, nil
	}
	if f.Schema != CheckpointSchema {
		return nil, fmt.Errorf("runner: checkpoint %s has schema %q, want %q",
			path, f.Schema, CheckpointSchema)
	}
	if f.Fingerprint != fingerprint {
		return nil, fmt.Errorf("runner: checkpoint %s belongs to campaign %s, this campaign is %s (same options and seed required to resume)",
			path, f.Fingerprint, fingerprint)
	}
	if f.Completed != nil {
		st.completed = f.Completed
	}
	return st, nil
}

// write persists the completed map atomically and durably: marshal, write to
// a same-directory temp file, fsync the file, rename over the target, then
// fsync the parent directory. A kill between any two steps leaves either the
// previous checkpoint or the new one — never a torn file — and the directory
// fsync makes the rename itself survive power loss: without it the new name
// may still live only in the directory's in-memory metadata, and a crash
// after "rename succeeded" could resurface the old checkpoint (or none).
func (st *checkpointState) write() error {
	raw, err := json.MarshalIndent(checkpointFile{
		Schema:      CheckpointSchema,
		Fingerprint: st.fingerprint,
		Completed:   st.completed,
	}, "", "  ")
	if err != nil {
		return err
	}
	tmp := st.path + ".tmp"
	f, err := st.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		st.discardTemp(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		st.discardTemp(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		st.discardTemp(tmp)
		return err
	}
	if err := st.fs.Rename(tmp, st.path); err != nil {
		st.discardTemp(tmp)
		return err
	}
	return st.fs.SyncDir(filepath.Dir(st.path))
}

// discardTemp removes the temp file a failed checkpoint write left behind
// (best effort — a survivor is overwritten by the next write anyway).
func (st *checkpointState) discardTemp(tmp string) {
	if err := st.fs.Remove(tmp); err != nil && !os.IsNotExist(err) {
		_ = err // nothing further to do; the next write truncates it
	}
}

// Fingerprint hashes an arbitrary JSON-encodable campaign description
// (options + seed) into a short stable identifier. Struct field order and
// sorted map keys make the encoding — and so the fingerprint — deterministic.
func Fingerprint(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		// Unencodable descriptions still need a stable answer; fall back to
		// the error text, which is itself deterministic for a given type.
		raw = []byte(err.Error())
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// ReadCheckpoint loads the completed-job map from the checkpoint at path,
// validating the schema and (when non-empty) the campaign fingerprint — the
// replay harness's entry point into a campaign's persisted results.
func ReadCheckpoint(path, fingerprint string) (map[string]JobResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runner: read checkpoint: %w", err)
	}
	var f checkpointFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("runner: parse checkpoint %s: %w", path, err)
	}
	if f.Schema != CheckpointSchema {
		return nil, fmt.Errorf("runner: checkpoint %s has schema %q, want %q", path, f.Schema, CheckpointSchema)
	}
	if fingerprint != "" && f.Fingerprint != fingerprint {
		return nil, fmt.Errorf("runner: checkpoint %s belongs to campaign %s, want %s", path, f.Fingerprint, fingerprint)
	}
	if f.Completed == nil {
		f.Completed = make(map[string]JobResult)
	}
	return f.Completed, nil
}

// CompletedKeys lists the keys recorded in the checkpoint at path, sorted —
// a debugging/inspection helper for binaries and tests.
func CompletedKeys(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f checkpointFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(f.Completed))
	for k := range f.Completed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}
