package afterimage

// One benchmark per table and figure of the paper (DESIGN.md carries the
// full index). Each benchmark regenerates its experiment per iteration and
// reports the figure's headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction harness: the reported metrics are the values
// EXPERIMENTS.md compares against the paper.

import (
	"context"
	"testing"
)

// BenchmarkFig6IndexBits regenerates Figure 6 (prefetcher indexing: the
// trigger boundary at 8 matched low IP bits).
func BenchmarkFig6IndexBits(b *testing.B) {
	var triggered, hitT, missT float64
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1), Quiet: true})
		pts := lab.RevFig6()
		triggered = 0
		for _, p := range pts {
			if p.Triggered {
				triggered++
				hitT = float64(p.AccessTime)
			} else {
				missT = float64(p.AccessTime)
			}
		}
	}
	b.ReportMetric(triggered, "triggered-of-17")
	b.ReportMetric(hitT, "hit-cycles")
	b.ReportMetric(missT, "miss-cycles")
}

// BenchmarkFig7TriggerPolicy regenerates Figure 7 (both scenarios).
func BenchmarkFig7TriggerPolicy(b *testing.B) {
	correct := 0.0
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1), Quiet: true})
		a := lab.RevFig7(true)
		bb := lab.RevFig7(false)
		correct = 0
		if a[0].OldStrideFired && !a[0].NewStrideFired {
			correct++
		}
		if !a[1].OldStrideFired && !a[1].NewStrideFired {
			correct++
		}
		if !a[2].OldStrideFired && a[2].NewStrideFired {
			correct++
		}
		if bb[0].OldStrideFired && !bb[0].NewStrideFired {
			correct++
		}
		if !bb[1].OldStrideFired && bb[1].NewStrideFired {
			correct++
		}
	}
	b.ReportMetric(correct, "policy-points-of-5")
}

// BenchmarkTable1PageBoundary regenerates Table 1 (page-boundary checking).
func BenchmarkTable1PageBoundary(b *testing.B) {
	matching := 0.0
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1), Quiet: true})
		matching = 0
		for _, r := range lab.RevTable1() {
			want := r.Pool == "recl" || r.PageOffset == 1
			if r.Prefetchable == want {
				matching++
			}
		}
	}
	b.ReportMetric(matching, "rows-matching-of-8")
}

// BenchmarkFig8aEntries regenerates Figure 8a (24-entry capacity).
func BenchmarkFig8aEntries(b *testing.B) {
	entries := 0.0
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1), Quiet: true})
		pts := lab.RevFig8a(26)
		alive := 0
		for _, p := range pts {
			if p.Triggered {
				alive++
			}
		}
		entries = float64(alive)
	}
	b.ReportMetric(entries, "entries")
}

// BenchmarkFig8bReplacement regenerates Figure 8b (Bit-PLRU eviction of
// positions 9–16).
func BenchmarkFig8bReplacement(b *testing.B) {
	correct := 0.0
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1), Quiet: true})
		correct = 0
		for _, p := range lab.RevFig8b() {
			want := p.Index < 8 || p.Index >= 16
			if p.Triggered == want {
				correct++
			}
		}
	}
	b.ReportMetric(correct, "positions-of-24")
}

// BenchmarkFig13aV1PrimeProbe regenerates Figure 13a (single if-path bit via
// Prime+Probe).
func BenchmarkFig13aV1PrimeProbe(b *testing.B) {
	rate := 0.0
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1)})
		res := lab.RunVariant1(V1Options{Secret: []bool{true}, Backend: PrimeProbe})
		rate = res.SuccessRate()
	}
	b.ReportMetric(rate*100, "success-%")
}

// BenchmarkFig13bRounds regenerates Figure 13b (round-by-round P+P, b'10).
func BenchmarkFig13bRounds(b *testing.B) {
	rate := 0.0
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1)})
		res := lab.RunVariant1(V1Options{Secret: []bool{false, true}, Backend: PrimeProbe})
		rate = res.SuccessRate()
	}
	b.ReportMetric(rate*100, "success-%")
}

// BenchmarkFig13cCrossProcess regenerates Figure 13c (cross-process F+R).
func BenchmarkFig13cCrossProcess(b *testing.B) {
	rate := 0.0
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1)})
		res := lab.RunVariant1(V1Options{Bits: 16, CrossProcess: true})
		rate = res.SuccessRate()
	}
	b.ReportMetric(rate*100, "success-%")
}

// BenchmarkFig14aKernel regenerates Figure 14a (V2 with IP search).
func BenchmarkFig14aKernel(b *testing.B) {
	found := 0.0
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1), Quiet: true})
		res := lab.RunVariant2(V2Options{Bits: 8, UseIPSearch: true})
		if res.IPSearched && res.FoundIPLow8 == 0xA7 {
			found = 1
		} else {
			found = 0
		}
	}
	b.ReportMetric(found, "ip-found")
}

// BenchmarkFig14bCovert regenerates Figure 14b / §7.2's covert channel
// (single entry: 833 bps, <6 % errors).
func BenchmarkFig14bCovert(b *testing.B) {
	var bps, errRate float64
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1)})
		res := lab.RunCovertChannel(CovertOptions{Message: make([]byte, 64)})
		bps = res.RawBps(1.0 / 3e9)
		errRate = res.ErrorRate()
	}
	b.ReportMetric(bps, "bps")
	b.ReportMetric(errRate*100, "err-%")
}

// BenchmarkFig14cRSAPSC regenerates Figure 14c (per-bit PSC extraction of
// an 8-bit key pattern b'01010101).
func BenchmarkFig14cRSAPSC(b *testing.B) {
	rate := 0.0
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1)})
		res := lab.ExtractRSAKey(RSAOptions{KeyBits: 64, ItersPerBit: 5, VictimIterationCycles: 6000})
		rate = res.BitSuccessRate()
	}
	b.ReportMetric(rate*100, "bits-%")
}

// BenchmarkFig15LoadTiming regenerates Figure 15 (OpenSSL phase onsets).
func BenchmarkFig15LoadTiming(b *testing.B) {
	ok := 0.0
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1)})
		keyLoad, decrypt := lab.TrackOpenSSL()
		if keyLoad.OnsetIndex >= 0 && decrypt.OnsetIndex > keyLoad.OnsetIndex {
			ok = 1
		} else {
			ok = 0
		}
	}
	b.ReportMetric(ok, "onsets-ordered")
}

// BenchmarkFig16TTest regenerates Figure 16 (t-test with accurate vs random
// timing).
func BenchmarkFig16TTest(b *testing.B) {
	var aligned, random float64
	for i := 0; i < b.N; i++ {
		a := RunTTest(true, int64(i+1))
		r := RunTTest(false, int64(i+1))
		aligned, random = a.FinalT(), r.FinalT()
	}
	b.ReportMetric(aligned, "t-aligned")
	b.ReportMetric(random, "t-random")
}

// BenchmarkTable3SuccessRates regenerates the §7.2 success-rate summary
// (V1 cross-thread / cross-process / V2) at a reduced round count per
// iteration; cmd/afterimage-experiments runs the full 200 rounds.
func BenchmarkTable3SuccessRates(b *testing.B) {
	var v1, v1x, v2 float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		v1 = NewLab(Options{Seed: seed}).RunVariant1(V1Options{Bits: 50}).SuccessRate()
		v1x = NewLab(Options{Seed: seed + 1}).RunVariant1(V1Options{Bits: 50, CrossProcess: true}).SuccessRate()
		v2 = NewLab(Options{Seed: seed + 2}).RunVariant2(V2Options{Bits: 50}).SuccessRate()
	}
	b.ReportMetric(v1*100, "v1-thread-%")
	b.ReportMetric(v1x*100, "v1-process-%")
	b.ReportMetric(v2*100, "v2-kernel-%")
}

// BenchmarkRSAKeyExtraction regenerates the §7.3 budget: per-bit time under
// the -O0 victim profile, extrapolated to the paper's 1024-bit key.
func BenchmarkRSAKeyExtraction(b *testing.B) {
	var minutes1024 float64
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1)})
		res := lab.ExtractRSAKey(RSAOptions{KeyBits: 64, ItersPerBit: 5})
		perBit := lab.Seconds(res.Cycles) / float64(res.BitsTotal)
		minutes1024 = perBit * 1024 / 60
	}
	b.ReportMetric(minutes1024, "min-per-1024b")
}

// BenchmarkMitigationOverhead regenerates §8.3 (clear-ip-prefetcher cost).
func BenchmarkMitigationOverhead(b *testing.B) {
	var top8, overall float64
	for i := 0; i < b.N; i++ {
		res, err := RunMitigationStudy(MitigationOptions{Instructions: 60_000, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		top8, overall = res.Top8Slowdown, res.OverallSlowdown
	}
	b.ReportMetric(top8*100, "top8-slowdown-%")
	b.ReportMetric(overall*100, "overall-slowdown-%")
}

// BenchmarkSGXLeak covers the §5.4 / Figure 10 enclave channel.
func BenchmarkSGXLeak(b *testing.B) {
	rate := 0.0
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1), Quiet: true})
		rate = lab.RunSGX(16, nil).SuccessRate()
	}
	b.ReportMetric(rate*100, "success-%")
}

// benchSweep runs one full fault-sweep campaign — the hotpathSweepOptions
// ladder (five intensities over the V1 cross-thread attack) with a 400k-load
// preconditioning trace per point — forked from a warmed template or, with
// fresh, booting every point. The two are bit-identical point for point
// (gated by the fork-vs-fresh differential suite, warmup included), so the
// pair measures exactly the fork saving: the fresh boot AND re-warm every
// point, the forked campaign warms one template and deep-copies it per point.
// One untimed campaign runs first, so every timed one finds the idle pool
// as back-to-back campaigns leave it, whatever ran before in the process.
func benchSweep(b *testing.B, fresh bool) {
	o := hotpathSweepOptions()
	o.Warmup = 400_000
	run := func() {
		res, _ := NewLab(Options{Seed: 42, Quiet: true}).runFaultSweep(context.Background(), o, fresh)
		if len(res.Points) != len(o.Intensities) {
			b.Fatalf("sweep returned %d points, want %d", len(res.Points), len(o.Intensities))
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkSweepForked measures the campaign path: one warmed template and
// one point lab, reset between points, with the caller's lab and the
// template booted from the idle pool and the point lab forked into an
// idle machine when one waits. The caller's lab is never closed, so each
// campaign takes one machine out of the pool and builds or forks one.
func BenchmarkSweepForked(b *testing.B) { benchSweep(b, false) }

// BenchmarkSweepFresh is the pre-fork behaviour (a full lab boot per point),
// kept as the baseline the forked campaign is compared against.
func BenchmarkSweepFresh(b *testing.B) { benchSweep(b, true) }

// BenchmarkNewLabIdle measures NewLab while a closed lab's machine waits
// in the idle pool: a Boot of that machine in place instead of a build
// (compare sim's BenchmarkNewMachine). The Close that puts the machine
// back is not timed.
func BenchmarkNewLabIdle(b *testing.B) {
	drainIdle()
	defer drainIdle()
	NewLab(Options{Seed: 1, Quiet: true}).Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i), Quiet: true})
		b.StopTimer()
		lab.Close()
		b.StartTimer()
	}
}

// BenchmarkLabForkIdle measures Lab.Fork of a warmed lab while an idle
// machine waits in the pool: a whole copy into that machine's arrays
// instead of new ones (compare sim's BenchmarkMachineFork). The Close that
// puts the machine back is not timed.
func BenchmarkLabForkIdle(b *testing.B) {
	drainIdle()
	defer drainIdle()
	tmpl := NewLab(Options{Seed: 1, Quiet: true})
	tmpl.runSweepWarmup(4096)
	buildLab(Options{Seed: 2, Quiet: true}).Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := tmpl.MustFork()
		b.StopTimer()
		f.Close()
		b.StartTimer()
	}
}

// BenchmarkV1TelemetryOff measures the full Variant-1 attack with telemetry
// in its default state: phase accounting on (always), event recording off.
// This is the seed-equivalent configuration — compare against
// BenchmarkV1TelemetryTrace to bound the disabled-path overhead:
//
//	go test -bench 'BenchmarkV1Telemetry' -count 10 .
//
// The disabled path must stay within noise (<2%) of the seed: every Emit
// site is guarded by Hub.TraceEnabled (two compares, no event construction).
func BenchmarkV1TelemetryOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1), Quiet: true})
		lab.RunVariant1(V1Options{Bits: 16})
	}
}

// BenchmarkV1TelemetryTrace is the same attack with full event recording into
// the default 256k ring — the price of -trace, for comparison.
func BenchmarkV1TelemetryTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := NewLab(Options{Seed: int64(i + 1), Quiet: true})
		lab.EnableTrace(0)
		lab.RunVariant1(V1Options{Bits: 16})
	}
}
