package afterimage

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"afterimage/internal/runner"
)

// Report is the machine-readable summary of a full reproduction run: every
// headline quantity of EXPERIMENTS.md in one JSON-serialisable structure,
// so regressions in the model show up as diffs.
type Report struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	Model  string `json:"model"`

	ReverseEngineering struct {
		Fig6BoundaryBits     int  `json:"fig6_boundary_bits"`
		Fig7PolicyExact      bool `json:"fig7_policy_exact"`
		Table1RowsMatching   int  `json:"table1_rows_matching"`
		Fig8aEntries         int  `json:"fig8a_entries"`
		Fig8bBitPLRUMatching bool `json:"fig8b_bitplru_matching"`
		SGXRetention         bool `json:"sgx_retention"`
	} `json:"reverse_engineering"`

	Attacks struct {
		V1ThreadSuccess  float64 `json:"v1_thread_success"`
		V1ProcessSuccess float64 `json:"v1_process_success"`
		V2KernelSuccess  float64 `json:"v2_kernel_success"`
		SGXSuccess       float64 `json:"sgx_success"`
		IPSearchFound    bool    `json:"ip_search_found"`
	} `json:"attacks"`

	Covert struct {
		SingleEntryBps   float64 `json:"single_entry_bps"`
		SingleEntryError float64 `json:"single_entry_error"`
		MaxEntriesBps    float64 `json:"max_entries_bps"`
		MaxEntriesError  float64 `json:"max_entries_error"`
	} `json:"covert"`

	RSA struct {
		BitSuccess        float64 `json:"bit_success"`
		PSCObservation    float64 `json:"psc_observation_accuracy"`
		Minutes1024Budget float64 `json:"minutes_1024_budget"`
	} `json:"rsa"`

	Power struct {
		AlignedFinalT float64 `json:"aligned_final_t"`
		RandomFinalT  float64 `json:"random_final_t"`
	} `json:"power"`

	Mitigation struct {
		Top8Slowdown    float64 `json:"top8_slowdown"`
		OverallSlowdown float64 `json:"overall_slowdown"`
		AnalyticBound   float64 `json:"analytic_bound"`
	} `json:"mitigation"`

	Comparison struct {
		BPUCycles        uint64  `json:"bpu_cycles"`
		PrefetcherCycles uint64  `json:"prefetcher_cycles"`
		Advantage        float64 `json:"advantage"`
	} `json:"comparison"`

	// Phases breaks the V1 thread-scenario run down by attack phase
	// (train/trigger/probe/decode): spans executed and simulated cycles per
	// phase, from the telemetry hub's always-on phase accounting.
	Phases []PhaseSummary `json:"phases,omitempty"`

	// Degraded lists experiments that failed permanently under the
	// supervised runner; their headline numbers read as zero values.
	Degraded []string `json:"degraded,omitempty"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// ReportOptions scales the report's sampling effort.
type ReportOptions struct {
	Seed int64
	// Rounds per success-rate estimate (the paper uses 200).
	Rounds int
	// MitigationInstructions per traced application.
	MitigationInstructions int
	// Runner supervises the Table 3 attack runs and the mitigation replays
	// (worker count, checkpoint/resume, retries, per-job deadline). The
	// zero value is sequential; any setting produces the same report.
	// Fingerprint is derived per campaign and must not be set.
	Runner runner.Options
	// AuditEvery propagates the invariant-audit cadence (Options.AuditEvery)
	// into every Table 3 lab. Audits are read-only, so any setting produces
	// the same report; a failing audit degrades that experiment.
	AuditEvery int
}

// FullReport runs the complete reproduction suite and returns the report.
// Expensive, deterministic per seed.
func FullReport(opts ReportOptions) (*Report, error) {
	return FullReportCtx(context.Background(), opts)
}

// table3Val is the JSON unit one supervised Table 3 job returns: whichever
// of the fields its attack produces, plus the per-phase accounting from the
// job's lab.
type table3Val struct {
	Success float64 `json:"success,omitempty"`
	IPFound bool    `json:"ip_found,omitempty"`
	Bps     float64 `json:"bps,omitempty"`
	ErrRate float64 `json:"err_rate,omitempty"`
	// StateHash is the machine's full-state hash after the attack — the
	// replay harness's divergence oracle. Checkpoint-internal: it rides in
	// the runner checkpoint but never surfaces in the Report schema.
	StateHash uint64         `json:"state_hash,omitempty"`
	Phases    []PhaseSummary `json:"phases,omitempty"`
}

// derivedCheckpoint namespaces one checkpoint path per campaign, so a
// report run that hosts several supervised campaigns (Table 3, mitigation)
// can hand each its own resumable file from a single user-supplied stem.
func derivedCheckpoint(path, tag string) string {
	if path == "" {
		return ""
	}
	return path + "." + tag
}

// table3Spec is one supervised Table 3 experiment: its checkpoint key and
// the attack it runs against a fresh lab.
type table3Spec struct {
	key string
	run func(ctx context.Context, lab *Lab) (table3Val, error)
}

// table3Specs enumerates the Table 3 experiments in their historic order
// (the index doubles as the seed offset).
func table3Specs(opts ReportOptions) []table3Spec {
	perCycle := 1.0 / 3e9
	return []table3Spec{
		{"v1-thread", func(_ context.Context, lab *Lab) (table3Val, error) {
			res, err := lab.RunVariant1E(V1Options{Bits: opts.Rounds})
			return table3Val{Success: res.SuccessRate()}, err
		}},
		{"v1-process", func(_ context.Context, lab *Lab) (table3Val, error) {
			res, err := lab.RunVariant1E(V1Options{Bits: opts.Rounds, CrossProcess: true})
			return table3Val{Success: res.SuccessRate()}, err
		}},
		{"v2-kernel", func(_ context.Context, lab *Lab) (table3Val, error) {
			res, err := lab.RunVariant2E(V2Options{Bits: opts.Rounds})
			return table3Val{Success: res.SuccessRate()}, err
		}},
		{"sgx", func(_ context.Context, lab *Lab) (table3Val, error) {
			res, err := lab.RunSGXE(opts.Rounds, nil)
			return table3Val{Success: res.SuccessRate()}, err
		}},
		{"ip-search", func(_ context.Context, lab *Lab) (table3Val, error) {
			res, err := lab.RunVariant2E(V2Options{Bits: 4, UseIPSearch: true})
			return table3Val{IPFound: res.IPSearched && res.FoundIPLow8 == 0xA7}, err
		}},
		{"covert-1", func(_ context.Context, lab *Lab) (table3Val, error) {
			res, err := lab.RunCovertChannelE(CovertOptions{Message: make([]byte, 128)})
			return table3Val{Bps: res.RawBps(perCycle), ErrRate: res.ErrorRate()}, err
		}},
		{"covert-24", func(_ context.Context, lab *Lab) (table3Val, error) {
			res, err := lab.RunCovertChannelE(CovertOptions{Message: make([]byte, 128), Entries: 24})
			return table3Val{Bps: res.RawBps(perCycle), ErrRate: res.ErrorRate()}, err
		}},
	}
}

// table3LabOptions is the lab configuration for the i-th Table 3 experiment.
// Seeds keep the historic sequential layout (+0 … +6) so numbers match older
// reports exactly.
func table3LabOptions(opts ReportOptions, i int, key string) Options {
	labOpts := Options{Seed: opts.Seed + int64(i), AuditEvery: opts.AuditEvery}
	if key == "ip-search" {
		labOpts.Quiet = true
	}
	return labOpts
}

// runTable3Spec boots a lab and executes one Table 3 experiment: attack,
// then a final invariant audit (silent state corruption becomes a typed
// FaultCorruption), then the full-state hash for replay comparison, and
// closes the lab. The campaign boots an idle machine when one waits
// (NewLab); the replay harness calls this directly with fresh set, to
// re-derive a checkpoint's values on a machine built from nothing.
func runTable3Spec(ctx context.Context, labOpts Options, spec table3Spec, fresh bool) (table3Val, error) {
	var lab *Lab
	if fresh {
		lab = buildLab(labOpts)
	} else {
		lab = NewLab(labOpts)
	}
	defer lab.Close()
	lab.ArmCancel(ctx)
	val, err := spec.run(ctx, lab)
	if err == nil {
		err = lab.m.Audit()
	}
	val.Phases = lab.PhaseSummaries()
	val.StateHash = lab.m.StateHash()
	return val, err
}

// table3Jobs builds the supervised job list for the Table 3 campaign.
func table3Jobs(opts ReportOptions) []runner.Job {
	specs := table3Specs(opts)
	jobs := make([]runner.Job, len(specs))
	for i, t := range specs {
		i, t := i, t
		labOpts := table3LabOptions(opts, i, t.key)
		jobs[i] = runner.Job{
			Key: t.key,
			Run: func(jctx context.Context, _ int) (any, error) {
				return runTable3Spec(jctx, labOpts, t, false)
			},
		}
	}
	return jobs
}

// table3Fingerprint identifies the Table 3 campaign for checkpoint
// resume/replay. AuditEvery is deliberately absent: audits are read-only,
// so a cadence change does not invalidate recorded results.
func table3Fingerprint(opts ReportOptions) string {
	return runner.Fingerprint(struct {
		Kind   string
		Seed   int64
		Rounds int
	}{"full-report-table3/1", opts.Seed, opts.Rounds})
}

// FullReportCtx is FullReport under a campaign context: the Table 3 attack
// runs and the §8.3 mitigation replays execute as supervised jobs (parallel
// workers, retry-with-backoff, checkpoint/resume when opts.Runner asks for
// them), while the cheap deterministic sections (reverse engineering, RSA,
// power, comparison) stay inline. Experiments that fail permanently land in
// Report.Degraded with zero-valued numbers instead of aborting the report.
// When a checkpoint path is configured, the report's campaigns each persist
// under a derived name (<path>.table3, <path>.mitigation).
func FullReportCtx(ctx context.Context, opts ReportOptions) (*Report, error) {
	if opts.Rounds <= 0 {
		opts.Rounds = 100
	}
	if opts.MitigationInstructions <= 0 {
		opts.MitigationInstructions = 120_000
	}
	start := time.Now()
	r := &Report{Schema: "afterimage-report/1", Seed: opts.Seed}

	// Reverse engineering (quiet machines).
	q := NewLab(Options{Seed: opts.Seed, Quiet: true})
	r.Model = q.ModelName()
	boundary := -1
	for _, p := range q.RevFig6() {
		if p.Triggered {
			boundary = p.MatchedBits
			break
		}
	}
	r.ReverseEngineering.Fig6BoundaryBits = boundary

	a, b := q.RevFig7(true), q.RevFig7(false)
	r.ReverseEngineering.Fig7PolicyExact =
		len(a) == 3 && a[0].OldStrideFired && !a[0].NewStrideFired &&
			!a[1].OldStrideFired && !a[1].NewStrideFired &&
			!a[2].OldStrideFired && a[2].NewStrideFired &&
			len(b) == 2 && b[0].OldStrideFired && !b[1].OldStrideFired && b[1].NewStrideFired

	for _, row := range q.RevTable1() {
		want := row.Pool == "recl" || row.PageOffset == 1
		if row.Prefetchable == want {
			r.ReverseEngineering.Table1RowsMatching++
		}
	}
	alive := 0
	for _, p := range q.RevFig8a(26) {
		if p.Triggered {
			alive++
		}
	}
	r.ReverseEngineering.Fig8aEntries = alive
	match8b := true
	for _, p := range q.RevFig8b() {
		if p.Triggered != (p.Index < 8 || p.Index >= 16) {
			match8b = false
		}
	}
	r.ReverseEngineering.Fig8bBitPLRUMatching = match8b
	r.ReverseEngineering.SGXRetention, _ = q.SGXRetention()
	q.Close()

	// Attack success rates (noisy machines, fresh lab per experiment) and the
	// covert channel — Table 3 — as supervised jobs. Seeds match the historic
	// sequential layout (+0 … +6) so the numbers are unchanged.
	jobs := table3Jobs(opts)
	ropts := opts.Runner
	if ropts.Seed == 0 {
		ropts.Seed = opts.Seed
	}
	ropts.CheckpointPath = derivedCheckpoint(opts.Runner.CheckpointPath, "table3")
	ropts.Fingerprint = table3Fingerprint(opts)
	jrs, rerr := runner.Run(ctx, jobs, ropts)
	if rerr != nil {
		return nil, fmt.Errorf("table 3 runs: %w", rerr)
	}
	vals := make(map[string]table3Val, len(jrs))
	for _, jr := range jrs {
		if jr.Skipped {
			continue
		}
		if jr.Degraded {
			r.Degraded = append(r.Degraded, jr.Key)
			continue
		}
		var v table3Val
		if err := json.Unmarshal(jr.Value, &v); err != nil {
			return nil, fmt.Errorf("table 3 run %q: corrupt value: %w", jr.Key, err)
		}
		vals[jr.Key] = v
	}
	r.Attacks.V1ThreadSuccess = vals["v1-thread"].Success
	r.Phases = vals["v1-thread"].Phases
	r.Attacks.V1ProcessSuccess = vals["v1-process"].Success
	r.Attacks.V2KernelSuccess = vals["v2-kernel"].Success
	r.Attacks.SGXSuccess = vals["sgx"].Success
	r.Attacks.IPSearchFound = vals["ip-search"].IPFound
	r.Covert.SingleEntryBps = vals["covert-1"].Bps
	r.Covert.SingleEntryError = vals["covert-1"].ErrRate
	r.Covert.MaxEntriesBps = vals["covert-24"].Bps
	r.Covert.MaxEntriesError = vals["covert-24"].ErrRate

	// RSA.
	rsaLab := NewLab(Options{Seed: opts.Seed + 7})
	rr := rsaLab.ExtractRSAKey(RSAOptions{KeyBits: 64, ItersPerBit: 5})
	r.RSA.BitSuccess = rr.BitSuccessRate()
	r.RSA.PSCObservation = rr.PSCSuccessRate()
	perBit := rsaLab.Seconds(rr.Cycles) / float64(rr.BitsTotal)
	r.RSA.Minutes1024Budget = perBit * 1024 / 60
	rsaLab.Close()

	// Power.
	r.Power.AlignedFinalT = RunTTest(true, opts.Seed).FinalT()
	r.Power.RandomFinalT = RunTTest(false, opts.Seed).FinalT()

	// Mitigation (its own supervised campaign, own derived checkpoint).
	mropts := opts.Runner
	mropts.CheckpointPath = derivedCheckpoint(opts.Runner.CheckpointPath, "mitigation")
	mit, err := RunMitigationStudyCtx(ctx, MitigationOptions{
		Instructions: opts.MitigationInstructions, Seed: opts.Seed,
		Runner: mropts,
	})
	if err != nil {
		return nil, fmt.Errorf("mitigation study: %w", err)
	}
	for _, name := range mit.Degraded {
		r.Degraded = append(r.Degraded, "mitigation/"+name)
	}
	r.Mitigation.Top8Slowdown = mit.Top8Slowdown
	r.Mitigation.OverallSlowdown = mit.OverallSlowdown
	r.Mitigation.AnalyticBound = mit.AnalyticUpperBound

	// Comparison.
	cmp := CompareTrainingCosts(opts.Seed)
	r.Comparison.BPUCycles = cmp.BPUCycles
	r.Comparison.PrefetcherCycles = cmp.PrefetcherCycles
	r.Comparison.Advantage = cmp.Advantage()

	r.ElapsedSeconds = time.Since(start).Seconds()
	return r, nil
}

// JSON renders the report with stable indentation.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
