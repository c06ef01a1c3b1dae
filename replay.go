package afterimage

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"afterimage/internal/runner"
)

// ReplayPoint is one checkpoint entry compared against a fresh re-execution
// of the same experiment.
type ReplayPoint struct {
	Key string `json:"key"`
	// CheckpointHash is the full-state hash the recorded run persisted.
	CheckpointHash uint64 `json:"checkpoint_hash,omitempty"`
	// ReplayHash is the hash the fresh re-execution produced.
	ReplayHash uint64 `json:"replay_hash,omitempty"`
	// Match is true when the hashes agree. Skipped points (see Note) report
	// Match=true so only genuine divergences count.
	Match bool `json:"match"`
	// Note explains why a point was skipped (degraded, retried, missing from
	// the checkpoint) or annotates a divergence (replay faulted).
	Note string `json:"note,omitempty"`
}

// ReplayReport is the outcome of re-executing a checkpointed campaign and
// diffing state hashes point by point. A divergence means the simulator is
// no longer deterministic relative to the recorded run — a corruption bug,
// an unseeded randomness source, or a code change that altered behaviour
// without a matching fingerprint change. See README.md for the triage
// walkthrough.
type ReplayReport struct {
	Schema string `json:"schema"`
	// Campaign names what was replayed ("table3" or "fault-sweep/<attack>").
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	// Checkpoint is the file the recorded hashes came from.
	Checkpoint string        `json:"checkpoint"`
	Points     []ReplayPoint `json:"points"`
	// Compared counts points whose hashes were actually diffed; Skipped
	// counts points excluded from comparison (degraded, retried, absent).
	Compared    int `json:"compared"`
	Skipped     int `json:"skipped"`
	Divergences int `json:"divergences"`
}

// Diverged reports whether any compared point's hashes disagreed.
func (r *ReplayReport) Diverged() bool { return r.Divergences > 0 }

// JSON renders the report with stable indentation.
func (r *ReplayReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// replayable decides whether a recorded job result is eligible for hash
// comparison. Only clean first-attempt results are: degraded or errored
// points may have died on a nondeterministic wall-clock deadline, and
// retried points ran under a salted fault schedule — re-running either at
// attempt zero would "diverge" for reasons that are not bugs.
func replayable(jr runner.JobResult) (string, bool) {
	switch {
	case jr.Skipped:
		return "recorded run was canceled before this point", false
	case jr.Degraded:
		return "recorded point degraded; outcome not deterministic", false
	case jr.Err != "":
		return "recorded point errored: " + jr.Err, false
	case jr.Attempts > 1:
		return fmt.Sprintf("recorded point needed %d attempts; replay compares first-attempt runs only", jr.Attempts), false
	}
	return "", true
}

// ReplayTable3 re-executes the Table 3 campaign recorded in the checkpoint
// a FullReport run persisted (stem is the ReportOptions.Runner.CheckpointPath
// the report was given; the table3-derived name is tried first, then the
// stem verbatim) and diffs each experiment's full-state hash against the
// recorded one. opts must match the recorded campaign — seed and rounds are
// fingerprinted, and a mismatch is an error rather than a spurious
// divergence report.
func ReplayTable3(ctx context.Context, opts ReportOptions, stem string) (*ReplayReport, error) {
	if opts.Rounds <= 0 {
		opts.Rounds = 100 // FullReportCtx's default; fingerprints must agree
	}
	path := derivedCheckpoint(stem, "table3")
	if _, err := os.Stat(path); err != nil {
		if _, err2 := os.Stat(stem); err2 == nil {
			path = stem // caller passed the derived file itself
		}
	}
	fp := table3Fingerprint(opts)
	completed, err := runner.ReadCheckpoint(path, fp)
	if err != nil {
		return nil, err
	}
	rep := &ReplayReport{
		Schema:      "afterimage-replay/1",
		Campaign:    "table3",
		Fingerprint: fp,
		Checkpoint:  path,
	}
	for i, spec := range table3Specs(opts) {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		jr, ok := completed[spec.key]
		if !ok {
			rep.addSkip(spec.key, "not in checkpoint")
			continue
		}
		if note, ok := replayable(jr); !ok {
			rep.addSkip(spec.key, note)
			continue
		}
		var rec table3Val
		if uerr := json.Unmarshal(jr.Value, &rec); uerr != nil {
			return rep, fmt.Errorf("replay: corrupt checkpoint value %q: %w", spec.key, uerr)
		}
		if rec.StateHash == 0 {
			rep.addSkip(spec.key, "no recorded state hash (checkpoint predates auditing)")
			continue
		}
		fresh, rerr := runTable3Spec(ctx, table3LabOptions(opts, i, spec.key), spec, true)
		note := ""
		if rerr != nil {
			note = "replay faulted: " + rerr.Error()
		}
		rep.addCompare(spec.key, rec.StateHash, fresh.StateHash, note)
	}
	return rep, nil
}

// ReplayFaultSweep re-executes the fault-sweep campaign recorded in the
// checkpoint at path (the SweepOptions.Runner.CheckpointPath the sweep was
// given) and diffs each point's full-state hash against the recorded one.
// The receiver and o must match the recorded campaign — lab options, attack,
// intensities, bits and fault template are all fingerprinted.
func (l *Lab) ReplayFaultSweep(ctx context.Context, o SweepOptions, path string) (*ReplayReport, error) {
	o, labOpts := sweepNormalize(l.opts, o)
	fp := sweepFingerprint(labOpts, o)
	completed, err := runner.ReadCheckpoint(path, fp)
	if err != nil {
		return nil, err
	}
	rep := &ReplayReport{
		Schema:      "afterimage-replay/1",
		Campaign:    "fault-sweep/" + o.Attack.String(),
		Fingerprint: fp,
		Checkpoint:  path,
	}
	boots := &pointLabs{opts: labOpts, warmup: o.Warmup}
	for i, intensity := range o.Intensities {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		key := sweepPointKey(o.Attack, i, intensity)
		jr, ok := completed[key]
		if !ok {
			rep.addSkip(key, "not in checkpoint")
			continue
		}
		if note, ok := replayable(jr); !ok {
			rep.addSkip(key, note)
			continue
		}
		var rec SweepPoint
		if uerr := json.Unmarshal(jr.Value, &rec); uerr != nil {
			return rep, fmt.Errorf("replay: corrupt checkpoint value %q: %w", key, uerr)
		}
		if rec.StateHash == 0 {
			rep.addSkip(key, "no recorded state hash (checkpoint predates auditing)")
			continue
		}
		// Replay always re-executes from a fresh boot (no template): a
		// campaign recorded under forked execution must hash-match a fresh
		// re-run, so every replay doubles as a fork-vs-fresh identity check.
		fresh, rerr := runSweepPoint(ctx, boots.get(), o, intensity, 0)
		note := ""
		if rerr != nil {
			note = "replay faulted: " + rerr.Error()
		}
		rep.addCompare(key, rec.StateHash, fresh.StateHash, note)
	}
	return rep, nil
}

// addSkip records a point excluded from comparison.
func (r *ReplayReport) addSkip(key, note string) {
	r.Points = append(r.Points, ReplayPoint{Key: key, Match: true, Note: note})
	r.Skipped++
}

// addCompare records a compared point and updates the divergence count.
func (r *ReplayReport) addCompare(key string, recorded, replayed uint64, note string) {
	p := ReplayPoint{
		Key:            key,
		CheckpointHash: recorded,
		ReplayHash:     replayed,
		Match:          recorded == replayed,
		Note:           note,
	}
	r.Points = append(r.Points, p)
	r.Compared++
	if !p.Match {
		r.Divergences++
	}
}
