package afterimage

import (
	"context"
	"encoding/json"
	"fmt"

	"afterimage/internal/faults"
	"afterimage/internal/mem"
	"afterimage/internal/runner"
	"afterimage/internal/sim"
	"afterimage/internal/telemetry"
)

// SweepAttack selects which attack a fault sweep drives.
type SweepAttack int

// The sweepable attacks.
const (
	SweepV1Thread SweepAttack = iota
	SweepV1Process
	SweepV2Kernel
	SweepCovert
)

// String names the attack (CLI spelling).
func (a SweepAttack) String() string {
	switch a {
	case SweepV1Thread:
		return "v1-thread"
	case SweepV1Process:
		return "v1-process"
	case SweepV2Kernel:
		return "v2-kernel"
	case SweepCovert:
		return "covert"
	default:
		return fmt.Sprintf("SweepAttack(%d)", int(a))
	}
}

// seedOffset keeps each attack's lab seed aligned with FullReport's Table 3
// runs, so a zero-intensity sweep point reproduces the reported success rate
// exactly.
func (a SweepAttack) seedOffset() int64 {
	switch a {
	case SweepV1Process:
		return 1
	case SweepV2Kernel:
		return 2
	case SweepCovert:
		return 5
	default:
		return 0
	}
}

// SweepOptions configures RunFaultSweep.
type SweepOptions struct {
	// Attack is the experiment driven at each intensity.
	Attack SweepAttack
	// Intensities are the fault-engine intensities to sample; default
	// {0, 0.5, 1, 2, 4}. Zero means no perturbation at all.
	Intensities []float64
	// Bits is the secret length per point (message bytes for the covert
	// channel); default 32.
	Bits int
	// Faults is the engine template: Seed, Kinds, and EventsPerMCycle are
	// taken from it, Intensity is overridden per point. A zero Seed derives
	// one from the lab seed.
	Faults faults.Config
	// Runner supervises the per-point jobs: worker count, retry budget and
	// backoff, checkpoint/resume, per-job wall deadline. The zero value runs
	// the points sequentially with the default retry policy and no
	// checkpoint; for any setting the curve is identical to a sequential
	// straight-through run of the same seed. Fingerprint is derived from the
	// campaign options and must not be set by the caller.
	Runner runner.Options
	// Warmup preconditions every point's machine with this many strided
	// loads — a deterministic trace replayed through the batched load API
	// before the attack and the fault engine start. It fills the L1 and L2,
	// populates the TLB and keeps the streamer issuing; it does not make the
	// IP-stride prefetcher fire (see runSweepWarmup). The campaign template
	// runs the trace ONCE and each point copies the warmed state, so the
	// trace is paid once per campaign instead of once per point; the fault
	// engine only arms after the warmup, so the prefix is genuinely shared.
	// Default 0: no template, and each point runs on a booted lab or one
	// reset to the constructor state.
	Warmup int
}

// SweepPoint is one (intensity → outcome) sample.
type SweepPoint struct {
	Intensity float64 `json:"intensity"`
	// SuccessRate is the per-bit accuracy (1−ErrorRate for the covert
	// channel).
	SuccessRate float64 `json:"success_rate"`
	// MeanConfidence averages the attack's per-bit confidence (0 for the
	// covert channel, which has no per-bit score).
	MeanConfidence float64 `json:"mean_confidence"`
	Cycles         uint64  `json:"cycles"`
	// FaultEvents is how many perturbations the engine applied.
	FaultEvents uint64 `json:"fault_events"`
	// Err records the fault that terminated the final attempt early, if
	// any; the success rate then covers only the bits observed before it.
	// Kept as the human-readable message for compatibility — FaultKind is
	// the machine-readable classification.
	Err string `json:"err,omitempty"`
	// FaultKind is the sim.FaultKind spelling behind Err ("cycle-budget",
	// "segfault", ...), empty when the point completed cleanly or the error
	// was not a typed simulator fault. Curve consumers use it to tell
	// budget kills from injected crashes without parsing Err.
	FaultKind string `json:"fault_kind,omitempty"`
	// Attempts is how many supervised runs the point consumed; omitted when
	// the first attempt stood. Retried attempts re-derive the fault-engine
	// seed from the attempt number, so each is an independent trial of the
	// same intensity.
	Attempts int `json:"attempts,omitempty"`
	// Degraded marks a point whose failure was permanent or whose retry
	// budget ran out; the campaign recorded it and continued.
	Degraded bool `json:"degraded,omitempty"`
	// Quarantined marks a point on which a corruption fault fired: the
	// auditor caught an invariant violation, the point was re-run on a lab
	// reset to the campaign's start (state-identical to a fresh fork of the
	// template or, without a warmup, to a fresh boot), and its final
	// outcome — successful retry or degraded — must be read with that
	// history in mind.
	Quarantined bool `json:"quarantined,omitempty"`
	// StateHash is the machine's full-state digest at the end of the
	// point's run (fresh runs only; resumed points keep the hash their
	// original run recorded). The replay harness re-executes points from
	// the checkpoint and diffs these.
	StateHash uint64 `json:"state_hash,omitempty"`
	// Phases carries the point lab's attack-phase accounting
	// (train/trigger/probe/decode), which SweepResult.PhaseSummaries merges
	// and a calling lab also absorbs into its own PhaseSummaries. Its event
	// counts are zero, traced or not.
	Phases []PhaseSummary `json:"phases,omitempty"`
}

// SweepResult is a success-rate-vs-fault-intensity curve.
type SweepResult struct {
	Attack string       `json:"attack"`
	Model  string       `json:"model"`
	Points []SweepPoint `json:"points"`
}

// JSON renders the curve with stable indentation — the byte-identity unit of
// the parallel/sequential/resume guarantee.
func (r SweepResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// PhaseSummaries merges the points' attack-phase accounting into one
// aggregate per phase, in order of first appearance: the campaign's phases,
// which an untraced lab that ran the sweep also reports.
func (r SweepResult) PhaseSummaries() []PhaseSummary {
	h := telemetry.NewHub()
	for _, pt := range r.Points {
		h.AbsorbSummaries(pt.Phases)
	}
	return h.PhaseSummaries()
}

// RunFaultSweep measures how one attack degrades under increasing fault-
// injection intensity: for each requested intensity it takes a lab built
// from this lab's options (with the FullReport-aligned seed offset),
// installs a deterministic fault engine, runs the attack through its
// error-hardened variant, and records accuracy, confidence and applied
// perturbations. The campaign keeps one point lab per runner worker and
// resets it to the campaign's start between attempts, by copying back or
// clearing only the cache sets the previous attempt dirtied. With a
// warmup, the start is one warmed campaign template, and a reset lab is
// state-identical to a fresh fork of it; without one there is no template,
// and a reset lab is state-identical to a fresh boot. The template and the
// point labs take idle machines from the process-wide pool when it holds
// any, and the sweep closes them into it when it returns (see Lab.Close),
// so back-to-back campaigns reuse machines instead of building them. A
// traced lab traces every point lab with its own ring capacity and absorbs
// their events in point order, counting them into its own phases; tracing
// changes no result byte. The whole curve is a pure function of the
// options and the lab seed — rerunning with the same seed reproduces it
// point for point, regardless of worker count, checkpoint resume or which
// machines the pool handed out. Nothing is simulated on the receiver; the
// package-level RunFaultSweepCtx runs the same campaign without a lab.
func (l *Lab) RunFaultSweep(o SweepOptions) SweepResult {
	res, _ := l.RunFaultSweepCtx(context.Background(), o)
	return res
}

// RunFaultSweepCtx is RunFaultSweep under a campaign context: the points run
// as supervised jobs on o.Runner's worker pool, transient per-point faults
// are retried with deterministic backoff, permanently failing points are
// recorded as degraded instead of aborting the curve, and — when a
// checkpoint is configured — every completed point is persisted so a killed
// sweep resumes where it stopped. A canceled context returns the completed
// prefix of the curve together with the cancellation error. The lab's
// telemetry hub absorbs the points' phases and, when tracing, their events,
// and its registry receives the campaign's metrics unless o.Runner.Metrics
// names another.
func (l *Lab) RunFaultSweepCtx(ctx context.Context, o SweepOptions) (SweepResult, error) {
	return runFaultSweep(ctx, l.opts, l.m.Telemetry(), o, false)
}

// RunFaultSweepCtx runs the campaign that NewLab(opts).RunFaultSweepCtx(ctx,
// o) runs, with the same result bytes, without building the caller's lab:
// a campaign is a function of its options, and only its point labs and
// template hold machines. Invalid opts return a typed *OptionError. Metrics
// go to o.Runner.Metrics alone (none when it is nil), and the campaign's
// phases are the result's (SweepResult.PhaseSummaries).
func RunFaultSweepCtx(ctx context.Context, opts Options, o SweepOptions) (SweepResult, error) {
	return runFaultSweep(ctx, opts, nil, o, false)
}

// runFaultSweep is the campaign behind both RunFaultSweepCtx entry points.
// hub, when not nil, is the calling lab's: it sets the points' trace
// capacity, absorbs their phases and events, and is the default metrics
// registry. fresh builds and warms every point attempt's lab from nothing,
// from a pointLabs with no pool and no template, instead of recycling
// point labs and idle machines. The two are bit-identical point for point
// and share one fingerprint; the fresh build is the reference the
// fork-vs-fresh differential tests and BenchmarkSweepFresh compare the
// pooled campaign against.
func runFaultSweep(ctx context.Context, opts Options, hub *telemetry.Hub, o SweepOptions, fresh bool) (SweepResult, error) {
	if err := opts.Validate(); err != nil {
		return SweepResult{Attack: o.Attack.String()}, err
	}
	res := SweepResult{Attack: o.Attack.String(), Model: opts.machineConfig().Name}
	if err := o.Validate(); err != nil {
		return res, err
	}
	o, labOpts := sweepNormalize(opts, o)

	// A warm campaign's shared prefix is warmed once: one pristine template
	// lab per configuration, audited once, and copied for every point
	// attempt. The template is never run, so concurrent copies from
	// parallel workers are concurrent reads. Without a warmup there is no
	// prefix to share, and point labs are booted instead. One pooled lab
	// per runner worker: at most that many attempts run at once, so a
	// larger pool would only hold memory.
	labs := &pointLabs{opts: labOpts, warmup: o.Warmup}
	if !fresh {
		labs.pool = make(chan *Lab, max(1, o.Runner.Workers))
		if o.Warmup > 0 {
			labs.tmpl = labs.get()
			labs.tmpl.m.Audit() // stamps the result, which scopes every point's audit
		}
	}

	// A traced campaign traces every point attempt with the parent's ring
	// capacity and keeps each point's last trace until assembly absorbs it
	// in point order; distinct indices make the writes race-free under
	// parallel workers.
	traceCap := 0
	if hub.TraceEnabled() {
		traceCap = hub.Bus().Cap()
	}
	events := make([][]telemetry.Event, len(o.Intensities))
	jobs := make([]runner.Job, len(o.Intensities))
	for i, intensity := range o.Intensities {
		i, intensity := i, intensity
		jobs[i] = runner.Job{
			Key: sweepPointKey(o.Attack, i, intensity),
			Run: func(jctx context.Context, attempt int) (any, error) {
				lab := labs.get()
				if traceCap > 0 {
					lab.EnableTrace(traceCap)
				}
				pt, err := runSweepPoint(jctx, lab, o, intensity, attempt)
				events[i] = lab.m.Telemetry().Events() // nil unless traced
				labs.put(lab)
				return pt, err
			},
		}
	}

	ropts := o.Runner
	if ropts.Seed == 0 {
		ropts.Seed = labOpts.Seed
	}
	if ropts.Metrics == nil && hub != nil {
		ropts.Metrics = hub.Registry()
	}
	ropts.Fingerprint = sweepFingerprint(labOpts, o)

	jrs, rerr := runner.Run(ctx, jobs, ropts)
	labs.close()

	for i, jr := range jrs {
		if jr.Skipped {
			continue // canceled before completion; a resume re-runs it
		}
		pt := SweepPoint{Intensity: o.Intensities[i]}
		if len(jr.Value) > 0 {
			if uerr := json.Unmarshal(jr.Value, &pt); uerr != nil && rerr == nil {
				rerr = fmt.Errorf("sweep: corrupt point %q: %w", jr.Key, uerr)
			}
		}
		if jr.Err != "" && pt.Err == "" {
			pt.Err = jr.Err
		}
		if pt.FaultKind == "" {
			pt.FaultKind = jr.FaultKind
		}
		if jr.Attempts > 1 {
			pt.Attempts = jr.Attempts
		}
		pt.Degraded = jr.Degraded
		pt.Quarantined = hasCorruptionHistory(jr.FaultHistory)
		hub.AbsorbSummaries(pt.Phases)
		hub.AbsorbEvents(events[i])
		// Each phase's cycles go into a sim.phase.<name>.cycles histogram of
		// the campaign's metrics registry (the server's, when run under one),
		// so the per-stage breakdown the span tree shows per campaign is also
		// queryable in aggregate on /metrics.
		if ropts.Metrics != nil {
			for _, p := range pt.Phases {
				ropts.Metrics.Histogram("sim.phase."+p.Name+".cycles", phaseCycleBounds).Observe(p.Cycles)
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res, rerr
}

// sweepNormalize fills the sweep defaults and derives the per-point lab
// options from the campaign's (the FullReport-aligned seed offset; the
// per-point watchdog is the campaign's own MaxCycles) — shared by the sweep
// itself and the replay harness so both derive identical points.
func sweepNormalize(opts Options, o SweepOptions) (SweepOptions, Options) {
	if len(o.Intensities) == 0 {
		o.Intensities = []float64{0, 0.5, 1, 2, 4}
	}
	if o.Bits <= 0 {
		o.Bits = 32
	}
	opts.Seed += o.Attack.seedOffset()
	return o, opts
}

// sweepWarmupPages sizes the preconditioning buffer: 64 locked pages of
// line-granular strided traffic.
const sweepWarmupPages = 64

// runSweepWarmup replays the campaign's preconditioning trace: n loads from
// 16 interleaved IPs, each walking its own line-granular progression over a
// shared 64-page buffer. It fills the L1 and L2, populates the TLB and keeps
// the streamer issuing, but it does not make the IP-stride prefetcher fire:
// the 16 IPs (0x5a0000 + k·0x40) share 4 low-byte tags, so they alias onto
// 4 history entries whose stride never settles, and over 400k loads the
// table allocates 4 entries and issues no prefetch on every seed
// (TestSweepWarmupPrefetcherCounts). The trace stays as it is because every
// warm result and the warm campaign goldens depend on it. It is a pure
// function of the load index, so a template that runs it once and a fresh
// lab that replays it per point reach identical state. It runs through the
// batched load API in 256-op chunks with a reused latency buffer, which
// keeps the whole warmup on the zero-allocation path.
func (l *Lab) runSweepWarmup(n int) {
	if n <= 0 {
		return
	}
	env := l.m.Direct(l.m.NewProcess("sweep-warmup"))
	buf := env.Mmap(sweepWarmupPages*mem.PageSize, mem.MapLocked)
	lines := sweepWarmupPages * (mem.PageSize / mem.LineSize)
	ops := make([]sim.LoadOp, 256)
	lats := make([]uint64, 0, len(ops))
	for done := 0; done < n; {
		k := len(ops)
		if n-done < k {
			k = n - done
		}
		for i := 0; i < k; i++ {
			idx := done + i
			line := (idx/16 + idx%16*37) % lines
			ops[i] = sim.LoadOp{
				IP: 0x5a_0000 + uint64(idx%16)*0x40,
				VA: buf.Base + mem.VAddr(line)*mem.LineSize,
			}
		}
		env.LoadBatch(ops[:k], lats[:0])
		done += k
	}
}

// sweepPointKey is the stable checkpoint key of one sweep point.
func sweepPointKey(a SweepAttack, i int, intensity float64) string {
	return fmt.Sprintf("%s/%02d@%g", a, i, intensity)
}

// sweepFingerprint identifies a sweep campaign for checkpoint validation.
// AuditEvery is zeroed first: audits are read-only, so a cadence change does
// not invalidate recorded results (matching table3Fingerprint).
func sweepFingerprint(labOpts Options, o SweepOptions) string {
	labOpts.AuditEvery = 0
	return runner.Fingerprint(struct {
		Kind        string
		Lab         Options
		Attack      string
		Intensities []float64
		Bits        int
		Warmup      int
		Faults      faults.Config
	}{"fault-sweep/2", labOpts, o.Attack.String(), o.Intensities, o.Bits, o.Warmup, o.Faults})
}

// phaseCycleBounds bucket per-phase simulated time: a training pass on a
// tiny campaign is thousands of cycles, a full-report probe phase millions.
var phaseCycleBounds = []uint64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// hasCorruptionHistory reports whether any attempt of a job died on an
// invariant-audit (corruption) fault.
func hasCorruptionHistory(history []string) bool {
	for _, h := range history {
		if h == sim.FaultCorruption.String() {
			return true
		}
	}
	return false
}

// pointLabs hands out the labs a campaign's point attempts run on, each at
// the campaign's start: a copy of the warmed template when tmpl is set,
// else a booted lab that has run the warmup. A lab in the campaign's pool
// is reset to that start in place (resetFrom(tmpl), a nil tmpl meaning a
// boot); the pool's labs track the template, so their resets copy back
// only the cache sets the last attempt dirtied. Without a pooled lab, get
// forks the template or calls NewLab(opts) and runs the warmup, and both
// reuse an idle machine of the process-wide pool when one waits (see
// Lab.Close). A campaign with a warmup pools labs only once it has a
// template, so a reset never skips the warmup. close hands the pooled labs
// and the template to the process-wide pool when the campaign is done. A
// pointLabs without a pool is the fresh reference and the replay harness:
// it builds every lab, template-free, from nothing (buildLab).
type pointLabs struct {
	opts   Options
	warmup int
	tmpl   *Lab
	pool   chan *Lab
}

// get returns a lab at the campaign's start.
func (p *pointLabs) get() *Lab {
	if p.pool == nil {
		lab := buildLab(p.opts)
		lab.runSweepWarmup(p.warmup)
		return lab
	}
	select {
	case lab := <-p.pool:
		if lab.resetFrom(p.tmpl) == nil {
			return lab
		}
	default:
	}
	if p.tmpl != nil {
		return p.tmpl.MustFork()
	}
	lab := NewLab(p.opts)
	lab.runSweepWarmup(p.warmup)
	return lab
}

// put offers a finished lab back to the campaign's pool, or closes it when
// the pool is full or absent. The caller must have read everything it
// needs from the lab: the next get overwrites it.
func (p *pointLabs) put(lab *Lab) {
	select {
	case p.pool <- lab:
	default:
		lab.Close()
	}
}

// close closes the pooled labs and the template. It runs once no attempt
// runs: the runner has returned.
func (p *pointLabs) close() {
	for {
		select {
		case lab := <-p.pool:
			lab.Close()
		default:
			if p.tmpl != nil {
				p.tmpl.Close()
			}
			return
		}
	}
}

// runSweepPoint executes one sweep point attempt on lab, a lab at the
// campaign's start (from pointLabs.get; all are bit-identical, and replay
// re-executes points on fresh boots and diffs their hashes against the
// ones the campaign recorded). It installs the salted fault engine, runs
// the attack through its error-hardened variant, then audits the final
// machine state and digests it. A failing final audit turns an
// otherwise-successful attempt into a corruption fault, so silently
// corrupted points are retried (quarantined) instead of reported. The
// point has been read from lab when it returns.
func runSweepPoint(jctx context.Context, lab *Lab, o SweepOptions, intensity float64, attempt int) (SweepPoint, error) {
	lab.ArmCancel(jctx)
	var eng *faults.Engine
	if intensity > 0 {
		fc := o.Faults
		fc.Intensity = intensity
		if fc.Seed == 0 {
			fc.Seed = lab.opts.Seed + 811
		}
		// Retries are independent trials of the same intensity:
		// salt the schedule, keep the lab seed (point identity).
		fc.Seed += int64(attempt) * 7919
		eng = lab.InjectFaults(fc)
	}
	pt := SweepPoint{Intensity: intensity}
	var err error
	switch o.Attack {
	case SweepV1Process:
		var r LeakResult
		r, err = lab.RunVariant1E(V1Options{Bits: o.Bits, CrossProcess: true})
		pt.SuccessRate, pt.MeanConfidence, pt.Cycles = r.SuccessRate(), r.MeanConfidence(), r.Cycles
	case SweepV2Kernel:
		var r V2Result
		r, err = lab.RunVariant2E(V2Options{Bits: o.Bits})
		pt.SuccessRate, pt.MeanConfidence, pt.Cycles = r.SuccessRate(), r.MeanConfidence(), r.Cycles
	case SweepCovert:
		var r CovertResult
		r, err = lab.RunCovertChannelE(CovertOptions{Message: make([]byte, o.Bits)})
		pt.SuccessRate, pt.Cycles = 1-r.ErrorRate(), r.Cycles
	default:
		var r LeakResult
		r, err = lab.RunVariant1E(V1Options{Bits: o.Bits})
		pt.SuccessRate, pt.MeanConfidence, pt.Cycles = r.SuccessRate(), r.MeanConfidence(), r.Cycles
	}
	if err == nil {
		// Final audit: whatever the cadence setting, a point never reports
		// success over structurally corrupt state. On a booted lab, and on
		// a copy of a template that audited clean, Audit checks only the
		// cache sets the point dirtied, which reports exactly what a full
		// audit would.
		err = lab.m.Audit()
	}
	if err != nil {
		pt.Err = err.Error()
		if f, ok := AsFault(err); ok {
			pt.FaultKind = f.Kind.String()
		}
	}
	if eng != nil {
		pt.FaultEvents = eng.Stats().Total
	}
	pt.StateHash = lab.m.StateHash()
	// Without event counts, so a point's bytes do not depend on tracing;
	// a traced parent counts the events it absorbs instead.
	pt.Phases = lab.PhaseSummaries()
	for i := range pt.Phases {
		pt.Phases[i].Events = 0
	}
	return pt, err
}
