package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"

	"afterimage/internal/vfs"
)

// CheckpointSchema versions the on-disk checkpoint format. A file carrying
// any other schema string than this one or checkpointSchemaV1 is rejected
// rather than misread.
const CheckpointSchema = "afterimage-runner-checkpoint/2"

// checkpointSchemaV1 is the format before the log: a /1 file is a /2 file
// with no records after its document, so both read the same way and a
// service upgraded with campaigns in flight still resumes them.
const checkpointSchemaV1 = "afterimage-runner-checkpoint/1"

// checkpointFile is the document a checkpoint starts with: which campaign
// it belongs to and every job completed when the run's first write
// published it, keyed by Key. Jobs completed after that follow the document
// as records, one JSON-encoded JobResult per line.
type checkpointFile struct {
	Schema      string               `json:"schema"`
	Fingerprint string               `json:"fingerprint"`
	Completed   map[string]JobResult `json:"completed"`
}

// errCheckpointDamaged marks bytes the writer cannot have left: a document
// that does not parse, or a record line that is not a JobResult.
var errCheckpointDamaged = errors.New("damaged")

// decodeCheckpoint reads a checkpoint: the document, then the records, each
// a line ending in a newline. Bytes after the last newline are a record
// whose append a crash cut off, or the zero-filled tail a crash can leave
// where the file grew before its data landed; either is dropped, keeping
// every record before it. Any other damage wraps errCheckpointDamaged, and
// an unknown schema is an error of its own.
func decodeCheckpoint(path string, raw []byte) (checkpointFile, error) {
	var f checkpointFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&f); err != nil {
		return f, fmt.Errorf("runner: checkpoint %s: %w document: %v", path, errCheckpointDamaged, err)
	}
	if f.Schema != CheckpointSchema && f.Schema != checkpointSchemaV1 {
		return f, fmt.Errorf("runner: checkpoint %s has schema %q, want %q", path, f.Schema, CheckpointSchema)
	}
	if f.Completed == nil {
		f.Completed = make(map[string]JobResult)
	}
	rest := bytes.TrimPrefix(raw[dec.InputOffset():], []byte("\n")) // the document's own newline
	for {
		n := bytes.IndexByte(rest, '\n')
		if n < 0 {
			return f, nil
		}
		var r JobResult
		if err := json.Unmarshal(rest[:n], &r); err != nil || r.Key == "" {
			return f, fmt.Errorf("runner: checkpoint %s: %w record at byte %d", path, errCheckpointDamaged, len(raw)-len(rest))
		}
		f.Completed[r.Key] = r
		rest = rest[n+1:]
	}
}

// checkpointState is the live handle: the completed map, the completions
// not yet durable, where to persist them and the filesystem to persist them
// through, and, once the run's first write has published the document, the
// open log later writes append to.
type checkpointState struct {
	path        string
	fingerprint string
	fs          vfs.FS
	completed   map[string]JobResult
	// pending holds the completions added since the last durable write, in
	// completion order.
	pending []JobResult
	// log is the published checkpoint, still open from the run's first
	// write; nil before that write and after close.
	log vfs.File
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
// A file decodeCheckpoint calls damaged was hurt after the fact (disk
// fault, partial copy, a torn append the disk reported as written): the
// document is published by rename and appends never touch earlier bytes, so
// no crash of the writer leaves it. Failing would wedge the campaign
// permanently (each retry re-hits the same parse error), so the damaged
// file is quarantined beside the original as <path>.corrupt and the
// campaign resumes fresh; determinism makes the recomputed results
// identical. Each quarantine bumps the corrupt counter
// (runner.checkpoint.corrupt; nil is inert) so silent-recovery events still
// surface in /metrics. A checkpoint the disk will not return (EIO), or a
// damaged one the disk will not let be renamed aside, likewise degrades to
// no-resume — the campaign recomputes instead of failing on a fault the
// retry loop could never fix, and the next checkpoint write replaces the
// file — and counts the campaign in runner.checkpoint.degraded. Well-formed
// files that disagree (unknown schema, wrong fingerprint) still fail
// loudly: those are configuration errors a recompute would silently paper
// over.
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
	f, err := decodeCheckpoint(path, raw)
	if errors.Is(err, errCheckpointDamaged) {
		if qerr := fsys.Rename(path, path+".corrupt"); qerr != nil {
			st.degrade(c)
			log.Warn("checkpoint corrupt and could not be quarantined; resuming without it (the next checkpoint write replaces it)",
				"path", path, "err", err, "quarantine_err", qerr)
			return st, nil
		}
		c.checkpointCorrupt.Inc()
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	if f.Fingerprint != fingerprint {
		return nil, fmt.Errorf("runner: checkpoint %s belongs to campaign %s, this campaign is %s (same options and seed required to resume)",
			path, f.Fingerprint, fingerprint)
	}
	st.completed = f.Completed
	return st, nil
}

// add records r as completed; it is durable only after the next flush.
func (st *checkpointState) add(r JobResult) {
	st.completed[r.Key] = r
	st.pending = append(st.pending, r)
}

// flush makes every pending completion durable. The run's first flush
// publishes the document, holding every job completed so far (resumed ones
// included), atomically; every later flush appends the pending records
// with one write and one fsync. After an error nothing further may be
// flushed.
func (st *checkpointState) flush() error {
	if st.log == nil {
		if err := st.publish(); err != nil {
			return err
		}
		st.pending = st.pending[:0]
		return nil
	}
	var buf []byte
	for _, r := range st.pending {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf = append(append(buf, line...), '\n')
	}
	if _, err := st.log.Write(buf); err != nil {
		return err
	}
	if err := st.log.Sync(); err != nil {
		return err
	}
	st.pending = st.pending[:0]
	return nil
}

// publish writes the document atomically and durably and keeps it open as
// the log: marshal, write to a same-directory temp file, fsync the file,
// rename over the target, then fsync the parent directory. A kill between
// any two steps leaves either the previous checkpoint or the new one —
// never a torn document — and the directory fsync makes the rename itself
// survive power loss: without it the new name may still live only in the
// directory's in-memory metadata, and a crash after "rename succeeded"
// could resurface the old checkpoint (or none). The rename is the only
// directory entry a run makes, so later appends need only the file's own
// fsync.
func (st *checkpointState) publish() error {
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
	fail := func(err error) error {
		f.Close()
		// Best effort: a survivor is truncated by the next write anyway.
		_ = st.fs.Remove(tmp)
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := st.fs.Rename(tmp, st.path); err != nil {
		return fail(err)
	}
	st.log = f
	return st.fs.SyncDir(filepath.Dir(st.path))
}

// close releases the log; Run calls it before returning.
func (st *checkpointState) close() {
	if st.log != nil {
		// Every write was fsynced, so a close error loses nothing durable.
		_ = st.log.Close()
		st.log = nil
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
	f, err := decodeCheckpoint(path, raw)
	if err != nil {
		return nil, err
	}
	if fingerprint != "" && f.Fingerprint != fingerprint {
		return nil, fmt.Errorf("runner: checkpoint %s belongs to campaign %s, want %s", path, f.Fingerprint, fingerprint)
	}
	return f.Completed, nil
}

// CompletedKeys lists the keys recorded in the checkpoint at path, sorted —
// a debugging/inspection helper for binaries and tests.
func CompletedKeys(path string) ([]string, error) {
	completed, err := ReadCheckpoint(path, "")
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(completed))
	for k := range completed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}
