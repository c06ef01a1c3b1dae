// Package runner is the supervised job-execution subsystem behind every
// multi-point campaign (fault sweeps, the full report's Table 3 runs, the
// mitigation study): a bounded worker pool that executes deterministic,
// independently-seeded jobs with per-job deadlines, retry-with-backoff for
// transient simulator faults, fail-fast degradation for permanent ones, and
// crash-safe checkpoint/resume.
//
// Design rules the campaign layers rely on:
//
//   - Jobs are independent and deterministic: the value a job returns is a
//     pure function of (its inputs, the attempt number). The runner may
//     therefore execute jobs in any order on any number of workers — the
//     result slice is always in job order and byte-identical to a
//     sequential run.
//   - Every job value crosses a JSON boundary (json.Marshal on completion,
//     the checkpoint file on resume), so a resumed campaign reassembles the
//     exact bytes a straight-through run would have produced.
//   - Completions become durable in batches, once enough compute is at
//     risk (checkpointBound), and every pending one before Run returns,
//     except after a completed Ephemeral run: the checkpoint is an
//     append-only log whose document the run's first write publishes
//     atomically and to which every later write appends the pending records
//     with one fsync (see CheckpointSchema). Progress (OnComplete) is
//     reported per completion, apart from durability.
//   - Failures are classified (see Class): transient faults — the cycle
//     watchdog, injected perturbations, segfaults from simulated code — are
//     retried with capped, deterministically-jittered exponential backoff;
//     permanent faults (API misuse, validation errors) and exhausted retry
//     budgets degrade the single job, never the campaign.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"afterimage/internal/obslog"
	"afterimage/internal/sim"
	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

// Class classifies a job failure for the retry policy.
type Class int

// The failure classes.
const (
	// ClassTransient failures are retried with backoff until the attempt
	// budget runs out.
	ClassTransient Class = iota
	// ClassPermanent failures fail fast: the job is recorded as degraded on
	// its first failing attempt.
	ClassPermanent
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// DefaultClassify is the standard fault taxonomy: typed simulator faults are
// transient (another attempt may land a different noise schedule or stay
// inside the budget) except FaultAPIMisuse, which marks a contract violation
// no retry can fix. Non-simulator errors (validation, marshalling) are
// permanent.
func DefaultClassify(err error) Class {
	if f, ok := sim.AsFault(err); ok {
		if f.Kind == sim.FaultAPIMisuse {
			return ClassPermanent
		}
		return ClassTransient
	}
	return ClassPermanent
}

// Job is one deterministic unit of a campaign.
type Job struct {
	// Key identifies the job within its campaign — checkpoint entries are
	// keyed by it, so it must be stable across runs and unique in the job
	// list.
	Key string
	// Run executes the job. attempt counts from 0; deterministic jobs that
	// want independent retrials fold it into their derived seeds. The
	// context carries campaign cancellation and the per-job deadline — wire
	// it into the simulator watchdog (Lab.ArmCancel) so an expired job
	// faults instead of running away. A non-nil value returned alongside an
	// error is kept as the job's partial result if the job ends degraded.
	Run func(ctx context.Context, attempt int) (any, error)
}

// Options configures a campaign run.
type Options struct {
	// Workers bounds the worker pool; <= 0 means 1 (sequential). Results do
	// not depend on the worker count.
	Workers int
	// MaxAttempts is the per-job attempt budget including the first run;
	// <= 0 means DefaultMaxAttempts.
	MaxAttempts int
	// BackoffBase is the delay before the first retry (doubled per further
	// retry up to BackoffMax); <= 0 means DefaultBackoffBase.
	BackoffBase time.Duration
	// BackoffMax caps the exponential growth; <= 0 means DefaultBackoffMax.
	BackoffMax time.Duration
	// Seed drives the deterministic backoff jitter.
	Seed int64
	// JobTimeout is the per-job wall-clock deadline (0 = none). The job's
	// context expires after it; a job wired into the simulator watchdog then
	// faults with FaultBudget and is retried as transient.
	JobTimeout time.Duration
	// CheckpointPath, when set, persists completed jobs to this file. They
	// are written together once the attempt time of those not yet written
	// reaches checkpointBound, and all of them before Run returns (on a
	// context error even when Ephemeral is set). The run's first write
	// publishes a document of every job completed so far by atomic
	// write-temp-then-rename; each later write appends the pending records
	// to it with one write and one fsync. A checkpoint write failure (full
	// or failing disk) never fails the campaign: the failure is logged,
	// runner.checkpoint.degraded is bumped, and checkpointing is disabled
	// for the rest of the run — the campaign completes, it just cannot be
	// resumed.
	CheckpointPath string
	// Ephemeral marks a checkpoint the caller removes as soon as the results
	// are safe elsewhere (the service deletes it once the result is
	// stored): a run that completes leaves its pending completions
	// unwritten, since nothing would read them. A run canceled or past its
	// deadline still writes them, so the next run resumes them.
	Ephemeral bool
	// FS is the filesystem checkpoints are read and written through; nil
	// means the real one (vfs.OS()). The disk-chaos harness passes a
	// vfs.FaultFS.
	FS vfs.FS
	// Resume loads CheckpointPath before running and skips jobs already
	// completed there. The file's fingerprint must match Fingerprint.
	Resume bool
	// Fingerprint identifies the campaign (hash its options and seed with
	// the Fingerprint helper); a checkpoint written by a different campaign
	// is rejected on resume instead of silently poisoning the results.
	Fingerprint string
	// Classify overrides DefaultClassify.
	Classify func(error) Class
	// Metrics, when set, receives the runner counters (runner.jobs.started/
	// completed/retried/resumed/degraded/skipped, runner.backoff.waits/
	// nanos, runner.checkpoint.writes) and the runner.attempt.us and
	// runner.checkpoint.us wall-time histograms.
	Metrics *telemetry.Registry
	// Logger, when set, receives structured per-job events (retries,
	// degradations), stamped with the campaign's correlation ID from the
	// run context. nil disables logging.
	Logger *slog.Logger
	// Sleep replaces the backoff sleep (tests). nil sleeps on a timer that
	// also aborts on campaign cancellation.
	Sleep func(time.Duration)
	// OnComplete is invoked (serialised) once per job completed in this run,
	// degraded ones included, with the number of jobs completed so far,
	// resumed ones included, whether or not the completion is durable yet —
	// the service's progress hook and the chaos tests' kill hook.
	OnComplete func(completed int)
}

// Defaults for the zero Options.
const (
	DefaultMaxAttempts = 3
	DefaultBackoffBase = 25 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
)

// checkpointBound is the compute at risk — the attempt time of completions
// not yet durable — at which the pending completions are written together.
// A durable write costs 0.3–1 ms on the 2-vCPU reference host
// (runner.checkpoint.us), so checkpointing stays near 1% of the compute it
// protects, and a SIGKILL or power loss loses less than this much completed
// work per campaign besides the points in progress. A point that takes
// longer than the bound, as paper-scale ones do, is written on its own.
const checkpointBound = 100 * time.Millisecond

// atRiskBound is checkpointBound; tests lower it to write every completion.
var atRiskBound = checkpointBound

// JobResult is one job's outcome. Exactly the fields below are persisted in
// checkpoints, so a resumed campaign reports completed jobs identically to
// the run that executed them.
type JobResult struct {
	Key string `json:"key"`
	// Attempts is how many runs the job consumed (1 = first attempt stood).
	Attempts int `json:"attempts"`
	// Value is the job's JSON-encoded return value — the last attempt's
	// partial value when the job ended degraded.
	Value json.RawMessage `json:"value,omitempty"`
	// Err is the final failing attempt's error message (empty on success).
	Err string `json:"err,omitempty"`
	// FaultKind is the machine-readable sim.FaultKind spelling behind Err,
	// when the failure was a typed simulator fault.
	FaultKind string `json:"fault_kind,omitempty"`
	// FaultHistory records the FaultKind of every failing attempt, in order
	// — kept even when a later attempt succeeds, so quarantine logic can see
	// that a point needed a re-run after (say) a corruption fault.
	FaultHistory []string `json:"fault_history,omitempty"`
	// Degraded marks a job whose failure was permanent or whose retry
	// budget ran out; the campaign continued without it.
	Degraded bool `json:"degraded,omitempty"`
	// Resumed marks a result loaded from a checkpoint rather than executed
	// in this run. Not persisted.
	Resumed bool `json:"-"`
	// Skipped marks a job the campaign cancellation prevented from
	// completing; it carries no value and is never checkpointed.
	Skipped bool `json:"-"`
}

// counters bundles the runner's telemetry; the zero value (nil registry) is
// inert.
type counters struct {
	started, completed, retried, resumed, degraded, skipped *telemetry.Counter
	backoffWaits, backoffNanos, checkpointWrites            *telemetry.Counter
	checkpointCorrupt, checkpointDegraded                   *telemetry.Counter
	attemptUS, checkpointUS                                 *telemetry.Histogram
}

// attemptBounds bucket one attempt's wall time in µs — a tiny sweep point is
// sub-millisecond, a full-report point can run for seconds.
var attemptBounds = []uint64{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000}

// checkpointBounds bucket one durable checkpoint write in µs — an fsync on
// a local disk is sub-millisecond to a few, on a failing one seconds.
var checkpointBounds = []uint64{10, 100, 1_000, 10_000, 100_000, 1_000_000}

func newCounters(reg *telemetry.Registry) counters {
	if reg == nil {
		return counters{}
	}
	return counters{
		started:            reg.Counter("runner.jobs.started"),
		completed:          reg.Counter("runner.jobs.completed"),
		retried:            reg.Counter("runner.jobs.retried"),
		resumed:            reg.Counter("runner.jobs.resumed"),
		degraded:           reg.Counter("runner.jobs.degraded"),
		skipped:            reg.Counter("runner.jobs.skipped"),
		backoffWaits:       reg.Counter("runner.backoff.waits"),
		backoffNanos:       reg.Counter("runner.backoff.nanos"),
		checkpointWrites:   reg.Counter("runner.checkpoint.writes"),
		checkpointCorrupt:  reg.Counter("runner.checkpoint.corrupt"),
		checkpointDegraded: reg.Counter("runner.checkpoint.degraded"),
		attemptUS:          reg.Histogram("runner.attempt.us", attemptBounds),
		checkpointUS:       reg.Histogram("runner.checkpoint.us", checkpointBounds),
	}
}

// Run executes the campaign and returns one JobResult per job, in job order.
// Degraded jobs do not fail the campaign; the returned error is non-nil only
// for campaign-level problems — duplicate keys, an unusable checkpoint, or
// cancellation (in which case the completed results are still returned and
// the checkpoint holds everything finished so far).
func Run(ctx context.Context, jobs []Job, o Options) ([]JobResult, error) {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.Classify == nil {
		o.Classify = DefaultClassify
	}
	c := newCounters(o.Metrics)

	seen := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if j.Key == "" {
			return nil, fmt.Errorf("runner: job %d has an empty key", i)
		}
		if prev, dup := seen[j.Key]; dup {
			return nil, fmt.Errorf("runner: jobs %d and %d share key %q", prev, i, j.Key)
		}
		seen[j.Key] = i
	}

	var cp *checkpointState
	if o.CheckpointPath != "" {
		fsys := o.FS
		if fsys == nil {
			fsys = vfs.OS()
		}
		var err error
		cp, err = openCheckpoint(o.CheckpointPath, o.Fingerprint, o.Resume, fsys, c, obslog.OrDiscard(o.Logger))
		if err != nil {
			return nil, err
		}
	}

	results := make([]JobResult, len(jobs))
	var pending []int
	for i, j := range jobs {
		if cp != nil {
			if r, ok := cp.completed[j.Key]; ok {
				r.Resumed = true
				results[i] = r
				c.resumed.Inc()
				continue
			}
		}
		pending = append(pending, i)
	}

	var (
		mu     sync.Mutex // guards cp, atRisk, done and the OnComplete hook
		cpDead bool       // a write failed; checkpointing is off for this run
		atRisk time.Duration
		done   = len(jobs) - len(pending)
		bound  = atRiskBound
	)
	// flush makes the pending completions durable. Callers hold mu, or
	// every worker has exited.
	flush := func() {
		if cp == nil || cpDead || len(cp.pending) == 0 {
			return
		}
		began := time.Now()
		if err := cp.flush(); err != nil {
			// Degrade to no-checkpoint, never to a failed campaign: the
			// results in memory are intact, only resumability is lost.
			cpDead = true
			cp.degrade(c)
			obslog.Ctx(o.Logger, ctx).Warn("checkpoint write failed; checkpointing disabled for this campaign (resume unavailable)",
				"path", o.CheckpointPath, "err", err)
			return
		}
		atRisk = 0
		c.checkpointUS.Observe(uint64(time.Since(began).Microseconds()))
		c.checkpointWrites.Inc()
	}
	record := func(idx int, r JobResult, took time.Duration) {
		results[idx] = r
		if r.Skipped {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if cp != nil && !cpDead {
			cp.add(r)
			if atRisk += took; atRisk >= bound {
				flush()
			}
		}
		done++
		if o.OnComplete != nil {
			o.OnComplete(done)
		}
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				if ctx.Err() != nil {
					c.skipped.Inc()
					record(idx, JobResult{Key: jobs[idx].Key, Skipped: true}, 0)
					continue
				}
				r, took := runJob(ctx, jobs[idx], o, c)
				record(idx, r, took)
			}
		}()
	}
	for _, idx := range pending {
		work <- idx
	}
	close(work)
	wg.Wait()

	err := ctx.Err()
	if cp != nil {
		// An early return writes everything, so the next run resumes it; a
		// completed run leaves an ephemeral checkpoint's pending completions
		// to its caller, who removes the file.
		if err != nil || !o.Ephemeral {
			flush()
		}
		cp.close()
	}
	if err != nil {
		return results, fmt.Errorf("runner: campaign canceled: %w", err)
	}
	return results, nil
}

// runJob supervises one job through its attempt budget. It also returns
// the job's attempt time, the compute a lost checkpoint would redo.
func runJob(ctx context.Context, job Job, o Options, c counters) (r JobResult, took time.Duration) {
	r = JobResult{Key: job.Key}
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			c.skipped.Inc()
			return JobResult{Key: job.Key, Skipped: true}, took
		}
		jctx, cancel := ctx, context.CancelFunc(func() {})
		if o.JobTimeout > 0 {
			jctx, cancel = context.WithTimeout(ctx, o.JobTimeout)
		}
		c.started.Inc()
		began := time.Now()
		val, err := safeRun(jctx, job, attempt)
		elapsed := time.Since(began)
		took += elapsed
		c.attemptUS.Observe(uint64(elapsed.Microseconds()))
		timedOut := jctx.Err() != nil && ctx.Err() == nil
		cancel()
		r.Attempts = attempt + 1

		if err == nil {
			raw, merr := json.Marshal(val)
			if merr != nil {
				err = fmt.Errorf("runner: job %q value not serialisable: %w", job.Key, merr)
			} else {
				r.Value = raw
				r.Err, r.FaultKind = "", "" // earlier attempts' failures are history
				c.completed.Inc()
				return r, took
			}
		}
		if ctx.Err() != nil {
			// The campaign died under the job; its partial outcome must not
			// be recorded as a degraded point — a resume will re-run it.
			c.skipped.Inc()
			return JobResult{Key: job.Key, Skipped: true}, took
		}

		r.Err = err.Error()
		r.FaultKind = ""
		if f, ok := sim.AsFault(err); ok {
			r.FaultKind = f.Kind.String()
		}
		if r.FaultKind != "" {
			r.FaultHistory = append(r.FaultHistory, r.FaultKind)
		}
		class := o.Classify(err)
		if timedOut {
			// A wall-clock deadline is scheduling noise, never evidence
			// about the job itself.
			class = ClassTransient
		}
		if class == ClassTransient && attempt+1 < o.MaxAttempts {
			c.retried.Inc()
			d := Delay(o.BackoffBase, o.BackoffMax, o.Seed, job.Key, attempt)
			c.backoffWaits.Inc()
			c.backoffNanos.Add(uint64(d))
			obslog.Ctx(o.Logger, ctx).Warn("job retrying", "job", job.Key,
				"attempt", attempt+1, "fault", r.FaultKind, "backoff", d, "err", err)
			sleepCtx(ctx, d, o.Sleep)
			continue
		}
		// Degraded: keep whatever partial value the last attempt produced.
		if val != nil {
			if raw, merr := json.Marshal(val); merr == nil {
				r.Value = raw
			}
		}
		r.Degraded = true
		c.degraded.Inc()
		obslog.Ctx(o.Logger, ctx).Warn("job degraded", "job", job.Key,
			"attempts", r.Attempts, "class", class.String(), "err", err)
		return r, took
	}
}

// safeRun is the runner's own panic boundary on top of the Lab's: a job that
// panics past the Run*E recover (a bug in campaign glue, not simulated code)
// degrades that job instead of killing the whole campaign.
func safeRun(ctx context.Context, job Job, attempt int) (val any, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch v := r.(type) {
		case *sim.SimFault:
			err = v
		case error:
			err = fmt.Errorf("runner: job %q panicked: %w", job.Key, v)
		default:
			err = fmt.Errorf("runner: job %q panicked: %v", job.Key, v)
		}
	}()
	return job.Run(ctx, attempt)
}

// sleepCtx waits d or until the campaign is canceled, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration, sleep func(time.Duration)) {
	if sleep != nil {
		sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
