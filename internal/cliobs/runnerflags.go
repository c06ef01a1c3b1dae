package cliobs

import (
	"context"
	"flag"
	"os/signal"
	"syscall"
	"time"

	"afterimage/internal/runner"
)

// RunnerFlags holds the supervised-campaign options every cmd/ binary
// shares: worker count, checkpoint/resume, and the per-job wall deadline.
type RunnerFlags struct {
	Jobs       int
	Checkpoint string
	Resume     bool
	Timeout    time.Duration
}

// RegisterRunner installs -jobs, -checkpoint, -resume and -timeout on the
// default flag set. Call before flag.Parse.
func RegisterRunner() *RunnerFlags {
	f := &RunnerFlags{}
	flag.IntVar(&f.Jobs, "jobs", 1, "parallel workers for supervised campaigns (results are identical for any value)")
	flag.StringVar(&f.Checkpoint, "checkpoint", "", "persist completed campaign points to this file, in batches once about 100 ms of their compute is unwritten and all of them when the run ends or is interrupted (an atomic first write, then one fsynced append per batch; campaigns derive per-name files from this stem)")
	flag.BoolVar(&f.Resume, "resume", false, "resume from the -checkpoint file, skipping already-completed points")
	flag.DurationVar(&f.Timeout, "timeout", 0, "per-point wall deadline (e.g. 30s); an overrunning point faults, is retried, and degrades if it keeps timing out (0 = none)")
	return f
}

// Context wraps ctx so SIGINT/SIGTERM cancel it: in-flight campaign points
// stop at the next watchdog poll, completed ones stay checkpointed, and a
// rerun with -resume picks up exactly where the signal landed. Callers must
// invoke the returned stop function.
func (f *RunnerFlags) Context(ctx context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
}

// Options builds the runner options for a single-campaign binary.
func (f *RunnerFlags) Options() runner.Options {
	return runner.Options{
		Workers:        f.Jobs,
		JobTimeout:     f.Timeout,
		CheckpointPath: f.Checkpoint,
		Resume:         f.Resume,
	}
}

// OptionsFor namespaces the checkpoint per campaign tag, so a binary that
// runs several supervised campaigns (two sweep attacks, report plus
// mitigation) gives each its own resumable file derived from the one
// -checkpoint stem.
func (f *RunnerFlags) OptionsFor(tag string) runner.Options {
	o := f.Options()
	if o.CheckpointPath != "" && tag != "" {
		o.CheckpointPath += "." + tag
	}
	return o
}
