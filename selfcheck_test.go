package afterimage

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"afterimage/internal/faults"
	"afterimage/internal/runner"
)

// TestOptionValidationTyped: every hardened entry point rejects out-of-range
// configuration with a typed *OptionError naming the struct and field, so
// caller bugs are distinguishable from simulator faults.
func TestOptionValidationTyped(t *testing.T) {
	lab := func() *Lab { return NewLab(Options{Seed: 1, Quiet: true}) }
	cases := []struct {
		name         string
		run          func() error
		strct, field string
	}{
		{"covert-too-many-entries", func() error {
			_, err := lab().RunCovertChannelE(CovertOptions{Message: []byte("x"), Entries: MaxCovertEntries + 1})
			return err
		}, "CovertOptions", "Entries"},
		{"covert-negative-interleave", func() error {
			_, err := lab().RunCovertChannelE(CovertOptions{Message: []byte("x"), InterleaveDepth: -1})
			return err
		}, "CovertOptions", "InterleaveDepth"},
		{"v1-equal-strides", func() error {
			_, err := lab().RunVariant1E(V1Options{Bits: 2, IfStride: 7, ElseStride: 7})
			return err
		}, "V1Options", "ElseStride"},
		{"v1-stride-overflow", func() error {
			_, err := lab().RunVariant1E(V1Options{Bits: 2, IfStride: 99})
			return err
		}, "V1Options", "IfStride"},
		{"v2-stride-overflow", func() error {
			_, err := lab().RunVariant2E(V2Options{Bits: 2, Stride: 40})
			return err
		}, "V2Options", "Stride"},
		{"rsa-tiny-key", func() error {
			_, err := lab().ExtractRSAKeyE(RSAOptions{KeyBits: 8})
			return err
		}, "RSAOptions", "KeyBits"},
		{"rsa-key-below-generator-minimum", func() error {
			_, err := lab().ExtractRSAKeyE(RSAOptions{KeyBits: 16})
			return err
		}, "RSAOptions", "KeyBits"},
		{"rsa-odd-key-31", func() error {
			_, err := lab().ExtractRSAKeyE(RSAOptions{KeyBits: 31})
			return err
		}, "RSAOptions", "KeyBits"},
		{"rsa-odd-key-33", func() error {
			_, err := lab().ExtractRSAKeyE(RSAOptions{KeyBits: 33})
			return err
		}, "RSAOptions", "KeyBits"},
		{"sweep-negative-intensity", func() error {
			_, err := lab().RunFaultSweepCtx(context.Background(), SweepOptions{Intensities: []float64{0, -1}})
			return err
		}, "SweepOptions", "Intensities[1]"},
		{"lab-negative-cadence", func() error {
			_, err := NewLabE(Options{Seed: 1, AuditEvery: -1})
			return err
		}, "Options", "AuditEvery"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v (%T) is not an *OptionError", err, err)
			}
			if oe.Struct != tc.strct || oe.Field != tc.field {
				t.Fatalf("error names %s.%s, want %s.%s", oe.Struct, oe.Field, tc.strct, tc.field)
			}
		})
	}
}

// TestRSAKeyBitsAcceptsGeneratorSizes: the even sizes at both ends of the
// range the key generator builds pass validation, and the smallest one
// runs end to end.
func TestRSAKeyBitsAcceptsGeneratorSizes(t *testing.T) {
	for _, bits := range []int{0, 32, 4096} {
		if err := (RSAOptions{KeyBits: bits}).Validate(); err != nil {
			t.Errorf("KeyBits %d rejected: %v", bits, err)
		}
	}
	lab := NewLab(Options{Seed: 1, Quiet: true})
	if _, err := lab.ExtractRSAKeyE(RSAOptions{KeyBits: 32, ItersPerBit: 1}); err != nil {
		t.Fatalf("KeyBits 32: %v", err)
	}
}

// TestSweepQuarantinesCorruptedPoint: a sweep whose fault engine injects only
// state-corruption classes has its dirty point caught by the final invariant
// audit, re-run from a fresh lab (transient classification), and — when every
// attempt corrupts again — recorded as degraded AND quarantined while the
// campaign completes and the clean point survives untouched.
func TestSweepQuarantinesCorruptedPoint(t *testing.T) {
	o := SweepOptions{
		Attack:      SweepV1Thread,
		Bits:        12,
		Intensities: []float64{0, 2},
		Faults:      faults.Config{EventsPerMCycle: 400, Kinds: faults.CorruptionKinds()},
		Runner:      runner.Options{Sleep: func(time.Duration) {}},
	}
	res, err := NewLab(Options{Seed: 42}).RunFaultSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatalf("campaign aborted instead of quarantining: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	clean, dirty := res.Points[0], res.Points[1]
	if clean.Quarantined || clean.Degraded || clean.Err != "" {
		t.Errorf("clean point flagged: %+v", clean)
	}
	if !dirty.Quarantined {
		t.Fatalf("corrupted point not quarantined: %+v", dirty)
	}
	if dirty.Attempts <= 1 {
		t.Errorf("quarantined point was not re-run (attempts=%d)", dirty.Attempts)
	}
	if !dirty.Degraded {
		t.Errorf("point corrupting on every attempt should end degraded: %+v", dirty)
	}
	if dirty.FaultKind != FaultCorruption.String() {
		t.Errorf("fault kind %q, want %q (err %q)", dirty.FaultKind, FaultCorruption, dirty.Err)
	}
}

// tamperCheckpoint rewrites one recorded point's state hash, simulating the
// silent-corruption scenario the replay harness exists to catch. It reads
// every completed point through runner.ReadCheckpoint, the fingerprint from
// the document the checkpoint starts with, and writes the tampered points
// back as one document.
func tamperCheckpoint(t *testing.T, path, key string) {
	t.Helper()
	completed, err := runner.ReadCheckpoint(path, "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var doc struct {
		Schema      string                      `json:"schema"`
		Fingerprint string                      `json:"fingerprint"`
		Completed   map[string]runner.JobResult `json:"completed"`
	}
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	jr, ok := completed[key]
	if !ok {
		t.Fatalf("key %q not in checkpoint %s", key, path)
	}
	var pt SweepPoint
	if err := json.Unmarshal(jr.Value, &pt); err != nil {
		t.Fatal(err)
	}
	pt.StateHash ^= 0xdeadbeef
	jr.Value, err = json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	completed[key] = jr
	doc.Completed = completed
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplayForkedWarmupCampaign: a campaign recorded under the default
// forked execution WITH a warm prefix (template warmed once, every point a
// fork) replays divergence-free. The replay harness always re-executes
// points fresh — boot plus per-point warmup — so this round trip is a
// continuous fork-vs-fresh identity check over the full campaign stack:
// checkpointing, fault salting, warmup trace and final audit included.
func TestReplayForkedWarmupCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("replay re-runs the campaign; slow")
	}
	path := filepath.Join(t.TempDir(), "warm-sweep.ck.json")
	o := SweepOptions{
		Attack:      SweepV1Thread,
		Bits:        10,
		Intensities: []float64{0, 1},
		Warmup:      30_000,
		Faults:      faults.Config{EventsPerMCycle: 200},
		Runner:      runner.Options{CheckpointPath: path},
	}
	if _, err := NewLab(Options{Seed: 11}).RunFaultSweepCtx(context.Background(), o); err != nil {
		t.Fatalf("recording forked warm sweep: %v", err)
	}
	o.Runner = runner.Options{}
	rep, err := NewLab(Options{Seed: 11}).ReplayFaultSweep(context.Background(), o, path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Compared != len(o.Intensities) {
		raw, _ := rep.JSON()
		t.Fatalf("replay compared %d of %d points:\n%s", rep.Compared, len(o.Intensities), raw)
	}
	if rep.Diverged() {
		raw, _ := rep.JSON()
		t.Fatalf("forked warm campaign diverged from fresh replay:\n%s", raw)
	}
}

// TestReplayFaultSweepDivergenceDetection: replaying a checkpointed sweep
// reproduces every clean point's state hash exactly; a tampered recorded hash
// is then reported as exactly one divergence.
func TestReplayFaultSweepDivergenceDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("replay re-runs the campaign; slow")
	}
	path := filepath.Join(t.TempDir(), "sweep.ck.json")
	o := SweepOptions{
		Attack:      SweepV1Thread,
		Bits:        12,
		Intensities: []float64{0, 1},
		Faults:      faults.Config{EventsPerMCycle: 200},
		Runner:      runner.Options{CheckpointPath: path},
	}
	// Record WITH an audit cadence, replay without one: audits are read-only,
	// so the cadence is excluded from the campaign fingerprint and the hashes
	// still match.
	if _, err := NewLab(Options{Seed: 5, AuditEvery: 8}).RunFaultSweepCtx(context.Background(), o); err != nil {
		t.Fatalf("recording sweep: %v", err)
	}

	o.Runner = runner.Options{} // replay reads the file directly
	rep, err := NewLab(Options{Seed: 5}).ReplayFaultSweep(context.Background(), o, path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Compared == 0 {
		t.Fatalf("replay compared nothing: %+v", rep)
	}
	if rep.Diverged() {
		raw, _ := rep.JSON()
		t.Fatalf("clean replay diverged:\n%s", raw)
	}

	tamperCheckpoint(t, path, sweepPointKey(SweepV1Thread, 0, 0))
	rep, err = NewLab(Options{Seed: 5}).ReplayFaultSweep(context.Background(), o, path)
	if err != nil {
		t.Fatalf("replay of tampered checkpoint: %v", err)
	}
	if rep.Divergences != 1 {
		raw, _ := rep.JSON()
		t.Fatalf("tampered checkpoint produced %d divergences, want 1:\n%s", rep.Divergences, raw)
	}
	for _, p := range rep.Points {
		if !p.Match && p.Key != sweepPointKey(SweepV1Thread, 0, 0) {
			t.Errorf("divergence reported on untampered point %q", p.Key)
		}
	}
}

// TestReplayTable3RoundTrip: a FullReport's Table 3 campaign, replayed from
// its checkpoint, reproduces every experiment's full-state hash point for
// point.
func TestReplayTable3RoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Table 3 campaign twice; slow")
	}
	stem := filepath.Join(t.TempDir(), "report.ck.json")
	opts := ReportOptions{
		Seed:                   3,
		Rounds:                 8,
		MitigationInstructions: 20_000,
		Runner:                 runner.Options{CheckpointPath: stem},
	}
	if _, err := FullReportCtx(context.Background(), opts); err != nil {
		t.Fatalf("recording report: %v", err)
	}
	rep, err := ReplayTable3(context.Background(), opts, stem)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if want := len(table3Specs(opts)); rep.Compared != want {
		raw, _ := rep.JSON()
		t.Fatalf("replay compared %d of %d experiments:\n%s", rep.Compared, want, raw)
	}
	if rep.Diverged() {
		raw, _ := rep.JSON()
		t.Fatalf("table 3 replay diverged:\n%s", raw)
	}
}

// TestAuditCadenceDoesNotChangeResults: the same attack with and without the
// audit cadence produces identical leak results — the read-only guarantee at
// the lab level (the sim package pins the state-hash version of this).
func TestAuditCadenceDoesNotChangeResults(t *testing.T) {
	run := func(every int) LeakResult {
		return NewLab(Options{Seed: 9, AuditEvery: every}).RunVariant1(V1Options{Bits: 16})
	}
	off, on := run(0), run(3)
	if off.SuccessRate() != on.SuccessRate() || off.Cycles != on.Cycles {
		t.Fatalf("cadence perturbed the attack: off=%.3f/%d cycles, on=%.3f/%d cycles",
			off.SuccessRate(), off.Cycles, on.SuccessRate(), on.Cycles)
	}
}
