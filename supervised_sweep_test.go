package afterimage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"afterimage/internal/faults"
	"afterimage/internal/runner"
	"afterimage/internal/telemetry"
)

// smallSweep is the campaign every supervised-sweep test runs: small enough
// to stay fast, three points so order and parallelism matter, and enough
// injected noise that the curve is not trivially flat.
func smallSweep() SweepOptions {
	return SweepOptions{
		Attack:      SweepV1Thread,
		Bits:        12,
		Intensities: []float64{0, 1, 3},
		Faults:      faults.Config{EventsPerMCycle: 200},
	}
}

// TestSweepParallelMatchesSequentialByteIdentical: the acceptance criterion —
// for a fixed seed, the curve's JSON is byte-identical whether the points run
// on one worker or eight.
func TestSweepParallelMatchesSequentialByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is slow")
	}
	run := func(workers int) []byte {
		o := smallSweep()
		o.Runner = runner.Options{Workers: workers}
		res, err := NewLab(Options{Seed: 5}).RunFaultSweepCtx(context.Background(), o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		raw, err := res.JSON()
		if err != nil {
			t.Fatalf("workers=%d: marshal: %v", workers, err)
		}
		return raw
	}
	seq := run(1)
	for _, workers := range []int{4, 8} {
		if par := run(workers); !bytes.Equal(seq, par) {
			t.Fatalf("workers=%d produced a different curve:\nseq: %s\npar: %s", workers, seq, par)
		}
	}
}

// TestSweepKillResumeByteIdentical: cancel the campaign after its first
// checkpoint write, then resume from the checkpoint — the resumed curve's
// JSON must equal a straight-through run's, and the resumed points must show
// up in the runner counters.
func TestSweepKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is slow")
	}
	golden := func() []byte {
		res, err := NewLab(Options{Seed: 5}).RunFaultSweepCtx(context.Background(), smallSweep())
		if err != nil {
			t.Fatalf("straight-through: %v", err)
		}
		raw, _ := res.JSON()
		return raw
	}()

	path := filepath.Join(t.TempDir(), "sweep.ck.json")

	// Phase 1: kill after the first completed point.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := smallSweep()
	o.Runner = runner.Options{
		CheckpointPath: path,
		OnCheckpoint: func(completed int) {
			if completed >= 1 {
				cancel()
			}
		},
	}
	if _, err := NewLab(Options{Seed: 5}).RunFaultSweepCtx(ctx, o); err == nil {
		t.Fatal("killed campaign reported no error")
	}

	// Phase 2: resume on a fresh lab and context.
	lab := NewLab(Options{Seed: 5})
	o = smallSweep()
	o.Runner = runner.Options{CheckpointPath: path, Resume: true}
	res, err := lab.RunFaultSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	raw, _ := res.JSON()
	if !bytes.Equal(golden, raw) {
		t.Fatalf("resumed curve differs from straight-through:\nwant: %s\ngot:  %s", golden, raw)
	}
	snap := lab.MetricsSnapshot()
	if n, _ := snap.Get("runner.jobs.resumed"); n == 0 {
		t.Error("resume run recorded no runner.jobs.resumed")
	}
	if n, _ := snap.Get("runner.checkpoint.writes"); n == 0 {
		t.Error("resume run recorded no checkpoint writes")
	}
}

// TestSweepDegradedPointCompletes: the other acceptance criterion — a
// campaign with one permanently-failing point (a cycle budget only the
// high-intensity point overruns, classified permanent) finishes, marks that
// point degraded with its machine-readable fault kind, and keeps the healthy
// points intact.
func TestSweepDegradedPointCompletes(t *testing.T) {
	o := SweepOptions{
		Attack:      SweepV1Thread,
		Bits:        12,
		Intensities: []float64{0, 6},
		Faults:      faults.Config{EventsPerMCycle: 200},
		Runner: runner.Options{
			Classify: func(error) runner.Class { return runner.ClassPermanent },
		},
	}
	// Intensity 0 needs ~258k cycles, intensity 6 ~929k (fault stalls): a
	// 500k budget on every point lab passes the clean point and kills the
	// stormy one.
	res, err := NewLab(Options{Seed: 42, MaxCycles: 500_000}).RunFaultSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatalf("campaign aborted instead of degrading: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	clean, stormy := res.Points[0], res.Points[1]
	if clean.Degraded || clean.Err != "" {
		t.Errorf("clean point degraded: %+v", clean)
	}
	if clean.SuccessRate < 0.5 {
		t.Errorf("clean point success %.2f, want healthy", clean.SuccessRate)
	}
	if !stormy.Degraded {
		t.Errorf("over-budget point not degraded: %+v", stormy)
	}
	if stormy.FaultKind != FaultBudget.String() {
		t.Errorf("fault kind %q, want %q (err %q)", stormy.FaultKind, FaultBudget, stormy.Err)
	}
	if stormy.Err == "" {
		t.Error("degraded point lost its human-readable error")
	}
}

// TestSweepPropagatesTelemetry: the parent lab's tracing and metrics reach
// the pooled point labs on two workers, for a campaign without a warmup and
// a warm one — phase summaries absorbed in point order, point event traces
// appended to the parent ring in point order (the same trace one worker
// absorbs), runner counters on the parent registry. Tracing changes no
// result byte but the phases' event counts, which only a traced lab
// counts, and the traced campaign's bytes equal its fresh reference's.
func TestSweepPropagatesTelemetry(t *testing.T) {
	for _, warmup := range []int{0, 2000} {
		t.Run(fmt.Sprintf("warmup=%d", warmup), func(t *testing.T) {
			o := smallSweep()
			o.Intensities = []float64{0, 1}
			o.Warmup = warmup
			run := func(workers int, trace, fresh bool) (*Lab, SweepResult) {
				t.Helper()
				lab := NewLab(Options{Seed: 5})
				if trace {
					lab.EnableTrace(0)
				}
				o.Runner.Workers = workers
				res, err := runFaultSweep(context.Background(), lab.opts, lab.m.Telemetry(), o, fresh)
				if err != nil {
					t.Fatalf("sweep: %v", err)
				}
				for i, p := range res.Points {
					if len(p.Phases) == 0 {
						t.Errorf("point %d carries no phase summaries", i)
					}
				}
				return lab, res
			}
			bytesOf := func(res SweepResult) []byte {
				t.Helper()
				raw, err := res.JSON()
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			lab, res := run(2, true, false)
			traced := bytesOf(res)
			if _, fresh := run(2, true, true); !bytes.Equal(traced, bytesOf(fresh)) {
				t.Errorf("traced campaign and its fresh reference differ:\npooled: %s\nfresh:  %s", traced, bytesOf(fresh))
			}
			if _, untraced := run(2, false, false); !bytes.Equal(traced, bytesOf(untraced)) {
				t.Errorf("tracing changed the result bytes:\ntraced:   %s\nuntraced: %s", traced, bytesOf(untraced))
			}
			phases := lab.PhaseSummaries()
			if len(phases) == 0 {
				t.Fatal("parent lab absorbed no phase summaries")
			}
			var spans int
			for _, p := range phases {
				spans += p.Spans
			}
			var want int
			for _, p := range res.Points {
				for _, ph := range p.Phases {
					want += ph.Spans
				}
			}
			if spans != want {
				t.Errorf("parent phase spans %d, points carry %d", spans, want)
			}
			events := lab.Machine().Telemetry().Events()
			if len(events) == 0 {
				t.Fatal("parent trace absorbed no child events")
			}
			for i := 1; i < len(events); i++ {
				if events[i].Cycle < events[i-1].Cycle {
					t.Fatalf("absorbed trace not monotonic at %d: %d < %d", i, events[i].Cycle, events[i-1].Cycle)
				}
			}
			inPhase := map[string]uint64{}
			for _, ev := range events {
				if ev.Kind != telemetry.EvPhaseBegin && ev.Kind != telemetry.EvPhaseEnd {
					inPhase[ev.Phase]++
				}
			}
			var counted uint64
			for _, p := range phases {
				if p.Events != inPhase[p.Name] {
					t.Errorf("parent phase %s counts %d events, its trace holds %d", p.Name, p.Events, inPhase[p.Name])
				}
				counted += p.Events
			}
			if counted == 0 {
				t.Error("parent phases count no absorbed events")
			}
			if seq, _ := run(1, true, false); !slices.Equal(events, seq.Machine().Telemetry().Events()) {
				t.Error("two workers absorbed a different trace than one")
			}
			snap := lab.MetricsSnapshot()
			if n, _ := snap.Get("runner.jobs.started"); n != uint64(len(o.Intensities)) {
				t.Errorf("runner.jobs.started = %d, want %d", n, len(o.Intensities))
			}
			if n, _ := snap.Get("runner.jobs.completed"); n != uint64(len(o.Intensities)) {
				t.Errorf("runner.jobs.completed = %d, want %d", n, len(o.Intensities))
			}
		})
	}
}

// TestSweepLablessMatchesLab: the package-level RunFaultSweepCtx, which
// builds no caller lab, returns the bytes a lab's RunFaultSweepCtx returns,
// for every attack, warm and cold, on one and two workers; its result's
// phases are the ones an untraced lab absorbs; invalid lab options come
// back as a typed *OptionError; and a cold campaign leaves no more idle
// machines than it had point labs, so it took no caller machine.
func TestSweepLablessMatchesLab(t *testing.T) {
	opts := Options{Seed: 9}
	for _, attack := range []SweepAttack{SweepV1Thread, SweepV1Process, SweepV2Kernel, SweepCovert} {
		for _, warmup := range []int{0, 2000} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s/warmup=%d/workers=%d", attack, warmup, workers)
				o := SweepOptions{Attack: attack, Bits: 6, Intensities: []float64{0, 1, 2},
					Warmup: warmup, Runner: runner.Options{Workers: workers}}
				lab := NewLab(opts)
				want, err := lab.RunFaultSweepCtx(context.Background(), o)
				if err != nil {
					t.Fatalf("%s: lab sweep: %v", name, err)
				}
				wantPhases := lab.PhaseSummaries()
				lab.Close()

				drainIdle()
				got, err := RunFaultSweepCtx(context.Background(), opts, o)
				if err != nil {
					t.Fatalf("%s: lab-less sweep: %v", name, err)
				}
				if n := idleCount(opts.Model); warmup == 0 && n > workers {
					t.Errorf("%s: %d idle machines after a cold campaign of %d point labs", name, n, workers)
				}
				gotRaw, err := got.JSON()
				if err != nil {
					t.Fatal(err)
				}
				wantRaw, err := want.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotRaw, wantRaw) {
					t.Errorf("%s: lab-less curve differs from the lab's:\ngot  %s\nwant %s", name, gotRaw, wantRaw)
				}
				if len(wantPhases) == 0 || !slices.Equal(got.PhaseSummaries(), wantPhases) {
					t.Errorf("%s: result phases %+v, lab phases %+v", name, got.PhaseSummaries(), wantPhases)
				}
			}
		}
	}

	res, err := RunFaultSweepCtx(context.Background(), Options{AuditEvery: -1}, smallSweep())
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Field != "AuditEvery" {
		t.Fatalf("invalid options: err %v, want an *OptionError on AuditEvery", err)
	}
	if len(res.Points) != 0 {
		t.Fatalf("invalid options ran %d points", len(res.Points))
	}
}

// TestSweepCanceledReturnsPrefix: a canceled campaign returns the completed
// prefix and an error, never a silently-truncated "successful" curve.
func TestSweepCanceledReturnsPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any point runs
	res, err := NewLab(Options{Seed: 5}).RunFaultSweepCtx(ctx, smallSweep())
	if err == nil {
		t.Fatal("canceled campaign reported success")
	}
	if len(res.Points) != 0 {
		t.Fatalf("canceled-before-start campaign produced %d points", len(res.Points))
	}
}

// TestSweepFingerprintPinned: a sweep's fingerprint, which every resume
// checks against its checkpoint, hashes the derived lab options, so the
// per-point cycle budget reaches it as the lab's MaxCycles. A change to
// the constant makes every recorded checkpoint of such a campaign refuse
// to resume.
func TestSweepFingerprintPinned(t *testing.T) {
	o, labOpts := sweepNormalize(Options{Seed: 5, MaxCycles: 1_000_000}, SweepOptions{Attack: SweepV2Kernel, Bits: 8})
	if got, want := sweepFingerprint(labOpts, o), "b3f56e97ffe53bcc"; got != want {
		t.Fatalf("sweep fingerprint %s, want %s", got, want)
	}
}
