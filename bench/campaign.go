package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"afterimage"
	"afterimage/internal/faults"
	"afterimage/internal/mem"
	"afterimage/internal/runner"
	"afterimage/internal/sim"
	"afterimage/internal/telemetry"
)

// campaignSpec is one in-process campaign: a fresh, non-quiet lab (as the
// service builds) running one fault sweep with the default forked execution.
type campaignSpec struct {
	seed int64
	opts afterimage.SweepOptions
}

// run executes the campaign the way a caller of the library does and
// returns its result bytes and simulated cycles.
func (c campaignSpec) run(ctx context.Context) ([]byte, uint64, error) {
	lab := afterimage.NewLab(afterimage.Options{Seed: c.seed})
	res, err := lab.RunFaultSweepCtx(ctx, c.opts)
	if err != nil {
		return nil, 0, err
	}
	body, err := res.JSON()
	return body, sweepCycles(res), err
}

func sweepCycles(res afterimage.SweepResult) uint64 {
	var n uint64
	for _, p := range res.Points {
		n += p.Cycles
	}
	return n
}

// Input streams of deriveSeed, one per kind of generated input.
const (
	streamWarm uint64 = iota + 1
	streamPoints
	streamHot
	streamMiss
	streamSetup
)

// warmSpec is campaign-warm's operation i: v1-thread over five intensities,
// 32 bits, 400k warmup loads. The template warmup runs the machine load path
// and is most of the campaign.
func warmSpec(seed int64, i int) campaignSpec {
	return campaignSpec{seed: deriveSeed(seed, streamWarm, i), opts: afterimage.SweepOptions{
		Attack:      afterimage.SweepV1Thread,
		Intensities: []float64{0, 0.5, 1, 2, 4},
		Bits:        32,
		Warmup:      400_000,
	}}
}

// pointsIntensities is campaign-points' 20-point curve: 0..2 in steps of 0.5,
// four times over.
var pointsIntensities = []float64{0, 0.5, 1, 1.5, 2, 0, 0.5, 1, 1.5, 2, 0, 0.5, 1, 1.5, 2, 0, 0.5, 1, 1.5, 2}

// pointAttacks rotate by operation index so every attack runs.
var pointAttacks = []afterimage.SweepAttack{
	afterimage.SweepV1Thread, afterimage.SweepV1Process, afterimage.SweepV2Kernel, afterimage.SweepCovert,
}

// pointsSpec is campaign-points' operation i: 20 points of 8 bits and no
// warmup, so the per-point fork, audit and hash are most of the campaign.
func pointsSpec(seed int64, i int) campaignSpec {
	return campaignSpec{seed: deriveSeed(seed, streamPoints, i), opts: afterimage.SweepOptions{
		Attack:      pointAttacks[i%len(pointAttacks)],
		Intensities: pointsIntensities,
		Bits:        8,
	}}
}

func setupCampaignWarm(ctx context.Context, e *env) (instance, error) {
	return setupCampaign(ctx, e, warmSpec)
}

func setupCampaignPoints(ctx context.Context, e *env) (instance, error) {
	return setupCampaign(ctx, e, pointsSpec)
}

// setupCampaign generates the inputs and runs one campaign per client
// outside the operation sequence, so lazy runtime set-up and heap growth
// are paid before the window.
func setupCampaign(ctx context.Context, e *env, spec func(int64, int) campaignSpec) (instance, error) {
	err := parallel(e.clients, func(c int) error {
		warm := spec(e.seed, c)
		warm.seed = deriveSeed(e.seed, streamSetup, c)
		_, _, err := warm.run(ctx)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return &campaignInstance{spec: func(i int) campaignSpec { return spec(e.seed, i) }, tr: e.tr}, nil
}

// campaignInstance runs campaigns in-process. On a traced run each
// operation replays the campaign step by step (replay) under spans,
// then runs it untraced through RunFaultSweepCtx and requires identical
// bytes: the replay measures the same work the library does.
type campaignInstance struct {
	spec func(i int) campaignSpec
	tr   *tracer

	mu                sync.Mutex
	tracedMs, plainMs []float64
	attempts, jobs    atomic.Int64
	loads             atomic.Int64
}

func (ci *campaignInstance) do(ctx context.Context, c, i int) (opResult, error) {
	sp := ci.spec(i)
	if ci.tr == nil {
		body, cycles, err := sp.run(ctx)
		return opResult{body: body, class: "campaign", cycles: cycles}, err
	}
	t0 := time.Now()
	root := ci.tr.root("campaign", i, c)
	got, err := ci.replay(ctx, root, sp)
	ci.tr.end(root)
	t1 := time.Now()
	if err != nil {
		return opResult{}, fmt.Errorf("replay: %w", err)
	}
	want, cycles, err := sp.run(ctx)
	t2 := time.Now()
	if err != nil {
		return opResult{}, err
	}
	ci.mu.Lock()
	ci.tracedMs = append(ci.tracedMs, ms(t1.Sub(t0)))
	ci.plainMs = append(ci.plainMs, ms(t2.Sub(t1)))
	ci.mu.Unlock()
	if !bytes.Equal(got, want) {
		return opResult{}, fmt.Errorf("replayed campaign differs from RunFaultSweepCtx (state hash, success rate or cycles)")
	}
	return opResult{body: want, class: "campaign", cycles: cycles}, nil
}

func (ci *campaignInstance) expect(ctx context.Context, i int) ([]byte, error) {
	body, _, err := ci.spec(i).run(ctx)
	return body, err
}

func (ci *campaignInstance) close() error { return nil }

// seedOffset mirrors the sweep's per-attack lab-seed offset (sweep.go), which
// aligns a sweep's zero-intensity point with the full report's Table 3 run.
// The byte comparison in do catches any drift.
func seedOffset(a afterimage.SweepAttack) int64 {
	switch a {
	case afterimage.SweepV1Process:
		return 1
	case afterimage.SweepV2Kernel:
		return 2
	case afterimage.SweepCovert:
		return 5
	}
	return 0
}

// replay runs RunFaultSweepCtx's steps through public calls, one span per
// stage: the caller's lab, the template lab, the warmup trace, the runner
// with fork, attack, audit and hash per point attempt, and the assembly of
// the result.
func (ci *campaignInstance) replay(ctx context.Context, root int, sp campaignSpec) ([]byte, error) {
	tr, o := ci.tr, sp.opts
	labOpts := afterimage.Options{Seed: sp.seed + seedOffset(o.Attack)}

	s := tr.begin(root, "sweep.lab")
	parent := afterimage.NewLab(afterimage.Options{Seed: sp.seed})
	tr.end(s)
	s = tr.begin(root, "sweep.template")
	tmpl := afterimage.NewLab(labOpts)
	tr.end(s)
	s = tr.begin(root, "sweep.warmup")
	ci.loads.Add(int64(warmup(tmpl, o.Warmup)))
	tr.end(s)

	rs := tr.begin(root, "runner.run")
	jobs := make([]runner.Job, len(o.Intensities))
	for j, x := range o.Intensities {
		jobs[j] = runner.Job{
			Key: fmt.Sprintf("%s/%02d@%g", o.Attack, j, x),
			Run: func(jctx context.Context, attempt int) (any, error) {
				ci.attempts.Add(1)
				return ci.replayPoint(jctx, rs, tmpl, labOpts.Seed, o.Attack, o.Bits, x, attempt)
			},
		}
	}
	ci.jobs.Add(int64(len(jobs)))
	jrs, err := runner.Run(ctx, jobs, runner.Options{
		Seed:    labOpts.Seed,
		Metrics: parent.Machine().Telemetry().Registry(),
	})
	tr.end(rs)
	if err != nil {
		return nil, err
	}

	s = tr.begin(root, "sweep.assemble")
	defer tr.end(s)
	res := afterimage.SweepResult{Attack: o.Attack.String(), Model: parent.ModelName()}
	for i, jr := range jrs {
		pt := afterimage.SweepPoint{Intensity: o.Intensities[i]}
		if err := json.Unmarshal(jr.Value, &pt); err != nil {
			return nil, fmt.Errorf("decode point %s: %w", jr.Key, err)
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
		for _, h := range jr.FaultHistory {
			if h == afterimage.FaultCorruption.String() {
				pt.Quarantined = true
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res.JSON()
}

// replayPoint is one point attempt: fork the warmed template, arm the job
// context, install the fault engine with the sweep's seed derivation (lab
// seed + 811, salted by attempt × 7919), run the attack, audit, hash.
func (ci *campaignInstance) replayPoint(jctx context.Context, parent int, tmpl *afterimage.Lab, seed int64,
	attack afterimage.SweepAttack, bits int, intensity float64, attempt int) (afterimage.SweepPoint, error) {
	tr := ci.tr
	pt := afterimage.SweepPoint{Intensity: intensity}

	s := tr.begin(parent, "sim.fork")
	lab, err := tmpl.Fork()
	tr.end(s)
	if err != nil {
		return pt, err
	}

	s = tr.begin(parent, "attack")
	lab.ArmCancel(jctx)
	var eng *faults.Engine
	if intensity > 0 {
		eng = lab.InjectFaults(faults.Config{Intensity: intensity, Seed: seed + 811 + int64(attempt)*7919})
	}
	switch attack {
	case afterimage.SweepV1Process:
		var r afterimage.LeakResult
		r, err = lab.RunVariant1E(afterimage.V1Options{Bits: bits, CrossProcess: true})
		pt.SuccessRate, pt.MeanConfidence, pt.Cycles = r.SuccessRate(), r.MeanConfidence(), r.Cycles
	case afterimage.SweepV2Kernel:
		var r afterimage.V2Result
		r, err = lab.RunVariant2E(afterimage.V2Options{Bits: bits})
		pt.SuccessRate, pt.MeanConfidence, pt.Cycles = r.SuccessRate(), r.MeanConfidence(), r.Cycles
	case afterimage.SweepCovert:
		var r afterimage.CovertResult
		r, err = lab.RunCovertChannelE(afterimage.CovertOptions{Message: make([]byte, bits)})
		pt.SuccessRate, pt.Cycles = 1-r.ErrorRate(), r.Cycles
	default:
		var r afterimage.LeakResult
		r, err = lab.RunVariant1E(afterimage.V1Options{Bits: bits})
		pt.SuccessRate, pt.MeanConfidence, pt.Cycles = r.SuccessRate(), r.MeanConfidence(), r.Cycles
	}
	tr.end(s)

	s = tr.begin(parent, "sim.audit")
	if err == nil {
		err = lab.Machine().Audit()
	}
	tr.end(s)
	if err != nil {
		pt.Err = err.Error()
		if f, ok := afterimage.AsFault(err); ok {
			pt.FaultKind = f.Kind.String()
		}
	}
	if eng != nil {
		pt.FaultEvents = eng.Stats().Total
	}

	s = tr.begin(parent, "sim.hash")
	pt.StateHash = lab.Machine().StateHash()
	tr.end(s)
	pt.Phases = lab.PhaseSummaries()
	return pt, err
}

// warmupPages and the trace below re-implement the sweep's private warmup
// (sweep.go runSweepWarmup): n loads from 16 interleaved IPs, each walking a
// line-granular progression over a 64-page locked buffer, issued through the
// batched load API in 256-op chunks. It returns the number of loads.
const warmupPages = 64

func warmup(lab *afterimage.Lab, n int) int {
	if n <= 0 {
		return 0
	}
	m := lab.Machine()
	env := m.Direct(m.NewProcess("sweep-warmup"))
	buf := env.Mmap(warmupPages*mem.PageSize, mem.MapLocked)
	lines := warmupPages * (mem.PageSize / mem.LineSize)
	ops := make([]sim.LoadOp, 256)
	lats := make([]uint64, 0, len(ops))
	for done := 0; done < n; {
		k := min(len(ops), n-done)
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
	return n
}

// layers turns the replay spans into per-stage costs, and measures the fork
// allocation and the load-latency histogram directly.
func (ci *campaignInstance) layers(ctx context.Context, lr *loopResult) (map[string]float64, []string, error) {
	ls := ci.tr.layers()
	total := func(name string) float64 {
		if l, ok := ls[name]; ok {
			return ms(l.total)
		}
		return 0
	}
	camp := total("campaign")
	campaigns := 0
	if l, ok := ls["campaign"]; ok {
		campaigns = l.count
	}
	if campaigns == 0 || camp == 0 {
		return nil, nil, fmt.Errorf("no traced campaign completed")
	}
	n, points := float64(campaigns), float64(ci.jobs.Load())
	runnerSelf := 0.0
	if l, ok := ls["runner.run"]; ok {
		runnerSelf = ms(l.self)
	}
	named := 0.0
	for _, st := range []string{"sweep.lab", "sweep.template", "sweep.warmup", "sim.fork", "attack", "sim.audit", "sim.hash", "sweep.assemble"} {
		named += total(st)
	}
	v := map[string]float64{
		"sweep.lab.ms":            total("sweep.lab") / n,
		"sweep.template.ms":       total("sweep.template") / n,
		"sweep.template.share":    total("sweep.template") / camp,
		"sweep.warmup.ms":         total("sweep.warmup") / n,
		"sweep.warmup.share":      total("sweep.warmup") / camp,
		"sim.fork.ms":             total("sim.fork") / points,
		"sim.fork.share":          total("sim.fork") / camp,
		"attack.ms":               total("attack") / points,
		"attack.share":            total("attack") / camp,
		"sim.audit.ms":            total("sim.audit") / points,
		"sim.audit.share":         total("sim.audit") / camp,
		"sim.hash.ms":             total("sim.hash") / points,
		"sim.hash.share":          total("sim.hash") / camp,
		"runner.self.ms":          runnerSelf / n,
		"runner.self.share":       runnerSelf / camp,
		"runner.attempts_per_job": float64(ci.attempts.Load()) / points,
		"sweep.assemble.ms":       total("sweep.assemble") / n,
		"sweep.stage_coverage":    named / camp,
	}
	if a := total("attack"); a > 0 {
		v["sweep.bookkeeping_ratio"] = (total("sim.fork") + total("sim.audit") + total("sim.hash")) / a
	}
	if loads := ci.loads.Load(); loads > 0 {
		v["sim.load.ns"] = total("sweep.warmup") * 1e6 / float64(loads)
	}
	ci.mu.Lock()
	if p := median(ci.plainMs); p > 0 {
		v["trace.overhead_frac"] = median(ci.tracedMs)/p - 1
	}
	ci.mu.Unlock()

	sp := ci.spec(0)
	tmpl := afterimage.NewLab(afterimage.Options{Seed: sp.seed + seedOffset(sp.opts.Attack)})
	warmup(tmpl, sp.opts.Warmup)
	v["sim.fork.alloc_mb"] = forkAllocMB(tmpl)
	obs, err := observeNs(tmpl)
	if err != nil {
		return nil, nil, err
	}
	v["telemetry.observe.ns"] = obs

	var problems []string
	if v["sweep.stage_coverage"] < 0.9 {
		problems = append(problems, fmt.Sprintf("named stages cover %.1f%% of traced campaign time, want >= 90%%", 100*v["sweep.stage_coverage"]))
	}
	return v, problems, nil
}

// forkAllocMB is the heap allocated by one fork of a warmed template, over
// a few forks made while no client runs.
func forkAllocMB(tmpl *afterimage.Lab) float64 {
	const forks = 5
	a0 := readAllocBytes()
	for k := 0; k < forks; k++ {
		tmpl.MustFork()
	}
	return float64(readAllocBytes()-a0) / 1e6 / forks
}

// observeNs times Histogram.Observe with the machine's load-latency bucket
// bounds over values spread across every bucket.
func observeNs(lab *afterimage.Lab) (float64, error) {
	snap, ok := lab.MetricsSnapshot().Histograms["mem.load.latency"]
	if !ok || len(snap.Bounds) == 0 {
		return 0, fmt.Errorf("machine registry has no mem.load.latency histogram")
	}
	h := telemetry.NewHistogram(snap.Bounds)
	span := snap.Bounds[len(snap.Bounds)-1] + 64
	const n = 1 << 20
	vals := make([]uint64, 1024)
	for i := range vals {
		vals[i] = mix(uint64(i), 0x0b5) % span
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(vals[i&1023])
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}
