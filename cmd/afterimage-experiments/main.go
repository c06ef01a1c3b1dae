// Command afterimage-experiments regenerates every table and figure of the
// AfterImage paper against the simulated machine and prints them in the
// paper's structure. Use -list to see the experiment ids and -run to select
// a subset.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"afterimage"
	"afterimage/internal/cliobs"
	"afterimage/internal/faults"
	"afterimage/internal/textplot"
)

type experiment struct {
	id    string
	title string
	run   func(seed int64)
}

// obs is shared with the lab constructors below so -trace/-metrics apply to
// the last lab an experiment builds.
var obs *cliobs.Flags

// rflags and campaignCtx give the supervised campaigns (fault-sweep,
// mitigation, -report) their worker pool, checkpoint/resume and ^C-safe
// cancellation.
var (
	rflags      *cliobs.RunnerFlags
	campaignCtx context.Context
)

func main() {
	var (
		seed   = flag.Int64("seed", 1, "master seed (equal seeds reproduce runs exactly)")
		run    = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		report = flag.String("report", "", "write the machine-readable JSON report to this file and exit")
		csvDir = flag.String("csv", "", "write per-figure CSV data series into this directory and exit")
	)
	obs = cliobs.Register()
	rflags = cliobs.RegisterRunner()
	flag.Parse()
	obs.Start()
	var stop context.CancelFunc
	campaignCtx, stop = rflags.Context(context.Background())
	defer stop()

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote figure data to %s\n", *csvDir)
		return
	}

	if *report != "" {
		r, err := afterimage.FullReportCtx(campaignCtx, afterimage.ReportOptions{
			Seed: *seed, Rounds: 200, Runner: rflags.Options(),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		raw, err := r.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*report, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%.1f s simulated suite)\n", *report, r.ElapsedSeconds)
		return
	}

	exps := []experiment{
		{"fig6", "Figure 6: IP-stride prefetcher indexing (low 8 IP bits)", runFig6},
		{"fig7", "Figure 7: confidence/stride update and trigger policy", runFig7},
		{"table1", "Table 1: page-boundary checking (recl vs MAP_LOCKED)", runTable1},
		{"fig8a", "Figure 8a: number of history entries (24)", runFig8a},
		{"fig8b", "Figure 8b: Bit-PLRU replacement", runFig8b},
		{"sgx-ret", "§4.6: prefetches survive enclave exit", runSGXRetention},
		{"fig13a", "Figure 13a: V1 cross-thread Prime+Probe, if-path", runFig13a},
		{"fig13b", "Figure 13b: V1 cross-thread round-by-round (P+P)", runFig13b},
		{"fig13c", "Figure 13c: V1 cross-process round-by-round (F+R)", runFig13c},
		{"fig14a", "Figure 14a: V2 user→kernel leak (F+R + IP search)", runFig14a},
		{"fig14b", "Figure 14b: covert channel stride detection", runFig14b},
		{"fig14c", "Figure 14c: TC-RSA bit extraction via PSC", runFig14c},
		{"fig15", "Figure 15: tracking OpenSSL load timing via PSC", runFig15},
		{"fig16", "Figure 16: t-test with accurate vs random timing", runFig16},
		{"table3", "Table 3 / §7.2: variant success rates & covert channel", runTable3},
		{"rsa", "§7.3: timing-constant RSA key extraction budget", runRSABudget},
		{"mitigation", "§8.3: clear-ip-prefetcher overhead", runMitigation},
		{"compare", "§9.2: BPU mistraining vs prefetcher training cost", runCompare},
		{"baseline", "Table 4: Shin et al. passive footprint baseline", runBaseline},
		{"aes-track", "extension: §6.3 flow applied to OpenSSL-style AES", runAESTrack},
		{"ecc", "extension: error-corrected covert channel", runECC},
		{"discovery", "extension: eviction-set discovery from timing alone", runDiscovery},
		{"cpa", "extension: CPA key recovery with AfterImage-aligned traces", runCPA},
		{"fault-sweep", "robustness: success rate vs fault-injection intensity", runFaultSweep},
	}

	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.id, e.title)
		}
		return
	}

	want := map[string]bool{}
	all := *run == "all"
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(id)] = true
	}
	ran := 0
	var failed []string
	for _, e := range exps {
		if !all && !want[e.id] {
			continue
		}
		fmt.Printf("\n=== %s ===\n", e.title)
		if err := runExperiment(e, *seed); err != nil {
			failed = append(failed, e.id)
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.id, err)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q; use -list\n", *run)
		os.Exit(1)
	}
	if err := obs.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d/%d experiments failed: %s\n",
			len(failed), ran, strings.Join(failed, ", "))
		os.Exit(1)
	}
}

// runExperiment isolates one experiment behind a panic boundary: a
// misbehaving experiment (simulator fault, model bug) reports a structured
// error and lets the remaining experiments run, instead of killing the
// whole suite mid-output.
func runExperiment(e experiment, seed int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(*afterimage.SimFault); ok {
				err = f
				return
			}
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	e.run(seed)
	return nil
}

func quietLab(seed int64) *afterimage.Lab {
	lab := afterimage.NewLab(obs.LabOptions(afterimage.Options{Seed: seed, Quiet: true}))
	obs.Observe(lab)
	return lab
}

func noisyLab(seed int64) *afterimage.Lab {
	lab := afterimage.NewLab(obs.LabOptions(afterimage.Options{Seed: seed}))
	obs.Observe(lab)
	return lab
}

func runFig6(seed int64) {
	pts := quietLab(seed).RevFig6()
	fmt.Println("matched-low-bits  access-time  triggered")
	for _, p := range pts {
		fmt.Printf("%16d  %8d     %-5v %s\n", p.MatchedBits, p.AccessTime, p.Triggered, textplot.Bar(float64(p.AccessTime), 260, 26))
	}
	fmt.Println("(>120 cycles = prefetcher not triggered; boundary at 8 matched bits)")
}

func runFig7(seed int64) {
	lab := quietLab(seed)
	fmt.Println("(a) random offset between phases (train 7, jump, train 5):")
	for _, p := range lab.RevFig7(true) {
		fmt.Printf("  phase-2 iter %d: stride-7 fired=%-5v stride-5 fired=%v\n",
			p.SecondPhaseIters, p.OldStrideFired, p.NewStrideFired)
	}
	fmt.Println("(b) second phase starts immediately after the first:")
	for _, p := range lab.RevFig7(false) {
		fmt.Printf("  phase-2 iter %d: stride-7 fired=%-5v stride-5 fired=%v\n",
			p.SecondPhaseIters, p.OldStrideFired, p.NewStrideFired)
	}
}

func runTable1(seed int64) {
	rows := quietLab(seed).RevTable1()
	fmt.Println("virtual-offset  pool  share-physical-page  prefetchable")
	for _, r := range rows {
		fmt.Printf("%8d Page   %-4s  %-19v  %v\n", r.PageOffset, r.Pool, r.SharePhysical, r.Prefetchable)
	}
}

func runFig8a(seed int64) {
	lab := quietLab(seed)
	for _, n := range []int{26, 30} {
		pts := lab.RevFig8a(n)
		evicted := 0
		fmt.Printf("%d trained IPs: ", n)
		for _, p := range pts {
			if p.Triggered {
				fmt.Print("^")
			} else {
				fmt.Print(".")
				evicted++
			}
		}
		fmt.Printf("  (%d evicted → table holds %d entries)\n", evicted, n-evicted)
	}
}

func runFig8b(seed int64) {
	pts := quietLab(seed).RevFig8b()
	fmt.Print("IPs 1-24 after re-touching 1-8 and training 8 new: ")
	var evicted []int
	for _, p := range pts {
		if p.Triggered {
			fmt.Print("^")
		} else {
			fmt.Print(".")
			evicted = append(evicted, p.Index+1)
		}
	}
	fmt.Printf("\nevicted positions (1-indexed): %v → Bit-PLRU\n", evicted)
}

func runSGXRetention(seed int64) {
	hit, at := quietLab(seed).SGXRetention()
	fmt.Printf("prefetched line after EEXIT: hit=%v (%d cycles)\n", hit, at)
}

func printProbe(probe []int64, hitThr int64) {
	var max int64
	for _, v := range probe {
		if v > max {
			max = v
		}
	}
	for i, v := range probe {
		mark := " "
		if v > hitThr {
			mark = "*"
		}
		fmt.Printf("set %2d %7d %s %s\n", i, v, mark, textplot.Bar(float64(v), float64(maxI64(max, 1)), 30))
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func runFig13a(seed int64) {
	lab := noisyLab(seed)
	res := lab.RunVariant1(afterimage.V1Options{Secret: []bool{true}, Backend: afterimage.PrimeProbe})
	fmt.Println("per-set probe time delta after the victim's if-path run (stride 7):")
	printProbe(res.LastProbe, 120)
	fmt.Printf("inferred if-path: %v\n", res.Inferred[0])
}

func runFig13b(seed int64) {
	lab := noisyLab(seed)
	secret := []bool{false, true} // b'10
	res := lab.RunVariant1(afterimage.V1Options{Secret: secret, Backend: afterimage.PrimeProbe})
	fmt.Printf("secret %v → inferred %v (success %.0f%%)\n", secret, res.Inferred, res.SuccessRate()*100)
}

func runFig13c(seed int64) {
	lab := noisyLab(seed)
	secret := []bool{false, true}
	res := lab.RunVariant1(afterimage.V1Options{Secret: secret, CrossProcess: true})
	fmt.Printf("cross-process secret %v → inferred %v\n", secret, res.Inferred)
	fmt.Println("final-round reload latencies:")
	printNegProbe(res.LastProbe)
}

func printNegProbe(probe []int64) {
	for i, v := range probe {
		mark := " "
		if v < 120 {
			mark = "*"
		}
		fmt.Printf("line %2d %5d %s %s\n", i, v, mark, textplot.Bar(float64(v), 260, 26))
	}
}

func runFig14a(seed int64) {
	lab := quietLab(seed)
	res := lab.RunVariant2(afterimage.V2Options{Secret: []bool{true}, UseIPSearch: true})
	fmt.Printf("IP search recovered low-8 bits: %#02x (searched=%v)\n", res.FoundIPLow8, res.IPSearched)
	fmt.Println("reload latencies after the syscall (stride 11 expected):")
	printNegProbe(res.LastProbe)
}

func runFig14b(seed int64) {
	lab := noisyLab(seed)
	res := lab.RunCovertChannel(afterimage.CovertOptions{Message: []byte{0xF7}}) // starts b'11110...
	fmt.Printf("sent 1 byte as 5-bit symbols; errors=%d/%d\n", res.SymbolErrors, res.SymbolsSent)
}

func runFig14c(seed int64) {
	lab := noisyLab(seed)
	res := lab.ExtractRSAKey(afterimage.RSAOptions{KeyBits: 64, ItersPerBit: 5, VictimIterationCycles: 6000})
	fmt.Printf("true exponent:      %x\n", res.TrueExponent)
	fmt.Printf("recovered exponent: %x\n", res.Recovered)
	fmt.Printf("bits %d/%d correct; per-observation PSC accuracy %.0f%%\n",
		res.BitsCorrect, res.BitsTotal, res.PSCSuccessRate()*100)
}

func runFig15(seed int64) {
	lab := noisyLab(seed)
	keyLoad, decrypt := lab.TrackOpenSSL()
	fmt.Println("prefetcher status per scheduling slot (. = triggered, X = reset):")
	fmt.Printf("key-load entry: %s  onset=slot %d\n", timeline(keyLoad.Samples), keyLoad.OnsetIndex)
	fmt.Printf("mul-add entry:  %s  onset=slot %d\n", timeline(decrypt.Samples), decrypt.OnsetIndex)
}

func runFig16(seed int64) {
	aligned := afterimage.RunTTest(true, seed)
	random := afterimage.RunTTest(false, seed)
	fmt.Println("plaintexts  t(aligned)  t(random)   (leakage threshold ±4.5)")
	for i := range aligned.Counts {
		fmt.Printf("%10d  %10.2f  %9.2f\n", aligned.Counts[i], aligned.TValues[i], random.TValues[i])
	}
}

func runTable3(seed int64) {
	type row struct {
		name string
		rate float64
	}
	var rows []row

	lab := noisyLab(seed)
	v1 := lab.RunVariant1(afterimage.V1Options{Bits: 200})
	rows = append(rows, row{"V1 cross-thread (F+R)", v1.SuccessRate()})

	lab = noisyLab(seed + 1)
	v1p := lab.RunVariant1(afterimage.V1Options{Bits: 200, CrossProcess: true})
	rows = append(rows, row{"V1 cross-process (F+R)", v1p.SuccessRate()})

	lab = noisyLab(seed + 2)
	v2 := lab.RunVariant2(afterimage.V2Options{Bits: 200})
	rows = append(rows, row{"V2 user→kernel (F+R)", v2.SuccessRate()})

	lab = noisyLab(seed + 3)
	sgx := lab.RunSGX(200, nil)
	rows = append(rows, row{"SGX enclave leak", sgx.SuccessRate()})

	sort.Slice(rows, func(i, j int) bool { return rows[i].rate > rows[j].rate })
	fmt.Println("variant                     success (200 rounds)   paper")
	paper := map[string]string{
		"V1 cross-thread (F+R)":  "99%",
		"V1 cross-process (F+R)": "97%",
		"V2 user→kernel (F+R)":   "91%",
		"SGX enclave leak":       "--",
	}
	for _, r := range rows {
		fmt.Printf("%-26s  %6.1f%%               %s\n", r.name, r.rate*100, paper[r.name])
	}

	lab = noisyLab(seed + 4)
	cov := lab.RunCovertChannel(afterimage.CovertOptions{Message: make([]byte, 256)})
	fmt.Printf("covert 1 entry : %7.0f bps raw, error %4.1f%%   (paper: 833 bps, <6%%)\n",
		cov.RawBps(1.0/3e9), cov.ErrorRate()*100)
	lab = noisyLab(seed + 5)
	cov24 := lab.RunCovertChannel(afterimage.CovertOptions{Message: make([]byte, 256), Entries: 24})
	fmt.Printf("covert 24 entry: %7.0f bps raw, error %4.1f%%   (paper: ~20 Kbps, >25%%)\n",
		cov24.RawBps(1.0/3e9), cov24.ErrorRate()*100)
}

func runRSABudget(seed int64) {
	lab := noisyLab(seed)
	res := lab.ExtractRSAKey(afterimage.RSAOptions{KeyBits: 96, ItersPerBit: 5})
	perBit := lab.Seconds(res.Cycles) / float64(res.BitsTotal)
	fmt.Printf("%d-bit exponent: %d/%d bits correct, PSC obs accuracy %.0f%%\n",
		res.BitsTotal, res.BitsCorrect, res.BitsTotal, res.PSCSuccessRate()*100)
	fmt.Printf("simulated wall time: %.1f s (%.2f s/bit at the -O0 victim profile)\n",
		lab.Seconds(res.Cycles), perBit)
	fmt.Printf("extrapolated to a 1024-bit exponent: %.0f minutes (paper: ~188 min)\n",
		perBit*1024/60)
}

func runCompare(seed int64) {
	c := afterimage.CompareTrainingCosts(seed)
	fmt.Printf("BPU mistraining:     %d candidate branches, ~%d cycles (paper: ~26 000)\n",
		c.BPUCandidates, c.BPUCycles)
	fmt.Printf("prefetcher training: %d candidate, %d cycles (paper: 1 000–2 000 w/ page misses)\n",
		c.PrefetcherCandidates, c.PrefetcherCycles)
	fmt.Printf("AfterImage trains %.0fx cheaper and is ASLR-immune (8 < 12 page-offset bits)\n",
		c.Advantage())
}

func runBaseline(seed int64) {
	lab := quietLab(seed)
	scan := lab.RunShinBaseline(9)
	fmt.Printf("table-scan victim:  footprint=%v stride=%d (Shin et al. succeeds)\n",
		scan.FootprintDetected, scan.Stride)
	branch := lab.RunShinBaselineOnBranchVictim(true)
	fmt.Printf("branch-load victim: footprint=%v (passive baseline learns nothing)\n",
		branch.FootprintDetected)
	lab2 := quietLab(seed)
	res := lab2.RunVariant1(afterimage.V1Options{Secret: []bool{true, false, true}})
	fmt.Printf("AfterImage on the same branch victim: %.0f%% — algorithm agnostic (Table 4)\n",
		res.SuccessRate()*100)
}

func runAESTrack(seed int64) {
	lab := noisyLab(seed)
	tl, expandSlot, encryptSlot, ct := lab.TrackAES()
	fmt.Printf("S-box entry status: %s\n", timeline(tl.Samples))
	fmt.Printf("key expansion at slot %d, block encryption at slot %d\n", expandSlot, encryptSlot)
	fmt.Printf("victim ciphertext: %x (FIPS-197 vector)\n", ct)
}

func runECC(seed int64) {
	msg := []byte("afterimage forward-error-corrected covert payload")
	lab := noisyLab(seed)
	raw := lab.RunCovertChannel(afterimage.CovertOptions{Message: msg, Entries: 8})
	lab2 := noisyLab(seed)
	ecc := lab2.RunCovertChannel(afterimage.CovertOptions{Message: msg, Entries: 8, UseECC: true})
	fmt.Printf("raw 8-entry channel: %d/%d symbol errors\n", raw.SymbolErrors, raw.SymbolsSent)
	fmt.Printf("ECC 8-entry channel: %d symbol errors → %d message byte errors after %d corrections\n",
		ecc.SymbolErrors, ecc.MessageByteErrors, ecc.Corrections)
}

func runCPA(seed int64) {
	aligned := afterimage.RunCPAAttack(true, 3000, seed)
	random := afterimage.RunCPAAttack(false, 3000, seed)
	fmt.Printf("aligned timing: recovered key %#02x (true %#02x), peak |r|=%.3f vs runner-up %.3f\n",
		aligned.RecoveredKey, aligned.TrueKey, aligned.PeakCorrelation, aligned.RunnerUpCorrelation)
	fmt.Printf("random timing:  recovered=%v, peak |r|=%.3f (no separation)\n",
		random.Recovered && random.PeakCorrelation > 2*random.RunnerUpCorrelation, random.PeakCorrelation)
}

func runDiscovery(seed int64) {
	lab := quietLab(seed)
	lines, trials, err := lab.DiscoverEvictionSet()
	if err != nil {
		fmt.Printf("discovery failed: %v\n", err)
		return
	}
	fmt.Printf("minimal eviction set found from timing alone: %d lines, %d evicts-target trials\n",
		lines, trials)
	fmt.Println("(no pagemap, no slice-hash knowledge — the group-testing reduction of Vila et al.)")
}

func runMitigation(seed int64) {
	res, err := afterimage.RunMitigationStudyCtx(campaignCtx, afterimage.MitigationOptions{
		Instructions: 200_000, Seed: seed, Runner: rflags.OptionsFor("mitigation"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("application        sensitive  base-IPC  flush-IPC  slowdown  pf-benefit")
	for _, r := range res.Rows {
		fmt.Printf("%-18s %-9v  %8.3f  %9.3f  %7.3f%%  %8.1f%%\n",
			r.Name, r.Sensitive, r.BaseIPC, r.MitigatedIPC, r.Slowdown*100, r.PrefetchBenefit*100)
	}
	if len(res.Degraded) > 0 {
		fmt.Printf("degraded (replay failed, excluded from means): %s\n", strings.Join(res.Degraded, ", "))
	}
	fmt.Printf("top-8 prefetch-sensitive slowdown: %.2f%% (paper: 0.7%%)\n", res.Top8Slowdown*100)
	fmt.Printf("overall slowdown:                  %.2f%% (paper: 0.2%%)\n", res.OverallSlowdown*100)
	fmt.Printf("analytic upper bound:              %.2f%% (paper: <7.3%%)\n", res.AnalyticUpperBound*100)
}

func runFaultSweep(seed int64) {
	lab := noisyLab(seed)
	for _, att := range []afterimage.SweepAttack{afterimage.SweepV1Thread, afterimage.SweepV2Kernel} {
		res, err := lab.RunFaultSweepCtx(campaignCtx, afterimage.SweepOptions{
			Attack: att, Bits: 48,
			Intensities: []float64{0, 0.5, 1, 2, 4, 8},
			Faults:      faults.Config{EventsPerMCycle: 150},
			Runner:      rflags.OptionsFor("sweep-" + att.String()),
		})
		fmt.Printf("%s:\n  intensity  success  confidence  events\n", res.Attack)
		for _, p := range res.Points {
			note := ""
			if p.FaultKind != "" {
				note = "  [" + p.FaultKind + "]"
			} else if p.Err != "" {
				note = "  (" + p.Err + ")"
			}
			if p.Degraded {
				note += "  DEGRADED"
			}
			if p.Quarantined {
				note += "  QUARANTINED"
			}
			fmt.Printf("  %9.2f  %6.1f%%  %10.2f  %6d %s%s\n",
				p.Intensity, p.SuccessRate*100, p.MeanConfidence, p.FaultEvents,
				textplot.Bar(p.SuccessRate, 1, 24), note)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep interrupted: %v (rerun with -resume to continue)\n", err)
			return
		}
	}
	fmt.Println("(prefetcher flushes, entry evictions, TLB shootdowns, preemption storms, cache thrash;")
	fmt.Println(" deterministic per seed — rerun with the same -seed for the identical curve;")
	fmt.Println(" -jobs N parallelises the points, -checkpoint/-resume survive kills)")
}

// timeline renders a PSC sample sequence via textplot.
func timeline(samples []afterimage.TimingSample) string {
	status := make([]bool, len(samples))
	for i, s := range samples {
		status[i] = s.Triggered
	}
	return textplot.Timeline(status)
}
