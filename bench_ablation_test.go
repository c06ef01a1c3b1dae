package afterimage

// Ablation benchmarks for the design choices DESIGN.md calls out: reload
// ordering, the prefetcher's replacement policy, stride selection versus
// the noise prefetchers, training length, mitigation alternatives (§8.2)
// and the clear-ip-prefetcher flush interval (§8.3). Each reports its
// finding as a benchmark metric.

import (
	"testing"

	"afterimage/internal/cache"
	"afterimage/internal/champsim"
	"afterimage/internal/core"
	"afterimage/internal/mem"
	"afterimage/internal/prefetcher"
	"afterimage/internal/sim"
	"afterimage/internal/trace"
)

// BenchmarkTrainingCostComparison reproduces §9.2: BPU mistraining versus
// prefetcher training (cycles and sprayed candidates).
func BenchmarkTrainingCostComparison(b *testing.B) {
	var c TrainingComparison
	for i := 0; i < b.N; i++ {
		c = CompareTrainingCosts(int64(i + 1))
	}
	b.ReportMetric(float64(c.BPUCycles), "bpu-cycles")
	b.ReportMetric(float64(c.PrefetcherCycles), "prefetcher-cycles")
	b.ReportMetric(c.Advantage(), "advantage-x")
}

// reloadFalseHits counts spurious hits of one flush→reload cycle on an
// untouched page under the given reload order.
func reloadFalseHits(seed int64, order core.ReloadOrder, sweeps int) int {
	m := sim.NewMachine(sim.Quiet(sim.CoffeeLake(seed)))
	env := m.Direct(m.NewProcess("a"))
	page := env.Mmap(mem.PageSize, mem.MapShared)
	fr := core.NewFlushReload()
	fr.Order = order
	false0 := 0
	for s := 0; s < sweeps; s++ {
		fr.FlushPage(env, page.Base)
		_, hits := fr.ReloadPage(env, page.Base)
		false0 += len(hits) // the page was never touched: every hit is false
	}
	return false0
}

// BenchmarkAblationReloadOrder quantifies why the reload sweep order
// matters: sequential order triggers the stream prefetchers constantly,
// the artifact's shuffle leaks ~1 self-trained echo per sweep, the zigzag
// order is silent.
func BenchmarkAblationReloadOrder(b *testing.B) {
	var zig, shuf, seq float64
	const sweeps = 20
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		zig = float64(reloadFalseHits(seed, core.OrderZigzag, sweeps)) / sweeps
		shuf = float64(reloadFalseHits(seed, core.OrderShuffle, sweeps)) / sweeps
		seq = float64(reloadFalseHits(seed, core.OrderSequential, sweeps)) / sweeps
	}
	b.ReportMetric(zig, "zigzag-falsehits/sweep")
	b.ReportMetric(shuf, "shuffle-falsehits/sweep")
	b.ReportMetric(seq, "sequential-falsehits/sweep")
}

// fig8bPattern runs the Figure 8b schedule on a raw prefetcher with the
// given replacement policy and reports whether the observed eviction set is
// exactly positions 9–16.
func fig8bPattern(policy cache.PolicyKind) bool {
	schedule := func(p *prefetcher.IPStride) ([]uint64, []uint64) {
		ips := make([]uint64, 32)
		bases := make([]uint64, 32)
		feedIPs := func(from, to int, off uint64) {
			for k := from; k < to; k++ {
				ips[k] = 0x9000_0000 + uint64(k)
				bases[k] = uint64(0x100000 + k*mem.PageSize)
				for r := uint64(0); r < 5; r++ {
					p.OnLoad(prefetcher.Access{
						IP: ips[k], PA: mem.PAddr(bases[k] + r*7*64 + off*64),
						PID: 1, TLBHit: true,
					})
				}
			}
		}
		feedIPs(0, 24, 0)
		feedIPs(0, 8, 5)
		feedIPs(24, 32, 0)
		return ips, bases
	}
	for i := 0; i < 24; i++ {
		cfg := prefetcher.DefaultIPStrideConfig()
		cfg.Policy = policy
		p := prefetcher.NewIPStride(cfg)
		ips, bases := schedule(p)
		reqs := p.OnLoad(prefetcher.Access{
			IP: ips[i], PA: mem.PAddr(bases[i] + 45*64), PID: 1, TLBHit: true,
		})
		survived := len(reqs) > 0
		want := i < 8 || i >= 16
		if survived != want {
			return false
		}
	}
	return true
}

// BenchmarkAblationReplacementPolicy checks which replacement policies
// reproduce the paper's Figure 8b observation — Bit-PLRU and true LRU do
// (the paper distinguishes them by hardware cost), FIFO does not, which is
// exactly the elimination argument of §4.5.
func BenchmarkAblationReplacementPolicy(b *testing.B) {
	var bitplru, lru, fifo float64
	for i := 0; i < b.N; i++ {
		bitplru = boolMetric(fig8bPattern(cache.BitPLRU))
		lru = boolMetric(fig8bPattern(cache.LRU))
		fifo = boolMetric(fig8bPattern(cache.FIFO))
	}
	b.ReportMetric(bitplru, "bitplru-matches")
	b.ReportMetric(lru, "lru-matches")
	b.ReportMetric(fifo, "fifo-matches")
}

// TestFig8bReplacementPolicyElimination pins the same §4.5 elimination
// argument as a pass/fail claim: under the Figure 8b schedule, Bit-PLRU and
// true LRU reproduce the observed eviction set and FIFO does not.
func TestFig8bReplacementPolicyElimination(t *testing.T) {
	for _, tc := range []struct {
		policy cache.PolicyKind
		want   bool
	}{
		{cache.BitPLRU, true},
		{cache.LRU, true},
		{cache.FIFO, false},
	} {
		if got := fig8bPattern(tc.policy); got != tc.want {
			t.Errorf("%v reproduces the Figure 8b eviction set: %v, want %v", tc.policy, got, tc.want)
		}
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// strideFalsePositiveRate measures how often an idle victim page appears to
// carry the given stride because the DCU/DPL/streamer prefetchers faked it.
// The victim touches two unrelated consecutive lines per round, as a
// streaming workload does.
func strideFalsePositiveRate(seed int64, stride int64, rounds int) float64 {
	m := sim.NewMachine(sim.Quiet(sim.CoffeeLake(seed)))
	env := m.Direct(m.NewProcess("a"))
	page := env.Mmap(mem.PageSize, mem.MapShared)
	fr := core.NewFlushReload()
	env.WarmTLB(page.Base)
	fp := 0
	for r := 0; r < rounds; r++ {
		fr.FlushPage(env, page.Base)
		// Innocent victim activity: a short sequential burst (no branch
		// secret, no trained entry involved).
		base := (r * 5) % 50
		for k := 0; k < 3; k++ {
			env.Load(0x9000_0000+uint64(r%7), page.Base+mem.VAddr((base+k)*mem.LineSize))
		}
		_, hits := fr.ReloadPage(env, page.Base)
		if _, ok := core.DetectStride(hits, []int64{stride}); ok {
			fp++
		}
	}
	return float64(fp) / float64(rounds)
}

// BenchmarkAblationStrideChoice shows why the paper trains with strides
// beyond four lines (§7.1): small strides collide with the reach of the
// DCU/DPL/streamer prefetchers and read innocent streaming as a signal.
func BenchmarkAblationStrideChoice(b *testing.B) {
	var small, large float64
	const rounds = 40
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		small = (strideFalsePositiveRate(seed, 1, rounds) +
			strideFalsePositiveRate(seed, 2, rounds)) / 2
		large = (strideFalsePositiveRate(seed, 7, rounds) +
			strideFalsePositiveRate(seed, 11, rounds)) / 2
	}
	b.ReportMetric(small*100, "fp-%-stride≤2")
	b.ReportMetric(large*100, "fp-%-stride≥7")
}

// BenchmarkAblationTrainingRounds sweeps the gadget training length: the
// 2-bit confidence counter needs three accesses before the entry triggers
// (§4.2's "minimum is 3 times").
func BenchmarkAblationTrainingRounds(b *testing.B) {
	rates := make([]float64, 5)
	for i := 0; i < b.N; i++ {
		for rounds := 1; rounds <= 4; rounds++ {
			m := sim.NewMachine(sim.Quiet(sim.CoffeeLake(int64(i + rounds*100))))
			env := m.Direct(m.NewProcess("a"))
			page := env.Mmap(mem.PageSize, mem.MapShared)
			env.WarmTLB(page.Base)
			fr := core.NewFlushReload()
			ok := 0
			const trials = 10
			for tr := 0; tr < trials; tr++ {
				g := core.MustNewGadget(env, []core.TrainEntry{{IP: 0x40_0034, StrideLines: 7}})
				g.Train(env, rounds)
				fr.FlushPage(env, page.Base)
				env.Load(0x0804_8634, page.Base+3*mem.LineSize) // victim if-path
				_, hits := fr.ReloadPage(env, page.Base)
				if _, found := core.DetectStride(hits, []int64{7}); found {
					ok++
				}
				m.Pref.IPStride.Flush() // fresh entry per trial
			}
			rates[rounds] = float64(ok) / trials
		}
	}
	b.ReportMetric(rates[1]*100, "rounds1-%")
	b.ReportMetric(rates[2]*100, "rounds2-%")
	b.ReportMetric(rates[3]*100, "rounds3-%")
	b.ReportMetric(rates[4]*100, "rounds4-%")
}

// BenchmarkAblationTagMitigations evaluates the §8.2 hardware-tagging
// alternatives: a full-IP tag and a PID tag each reduce the V1 attack to
// noise, at zero runtime cost (unlike the flush, which trades 0.7 %).
func BenchmarkAblationTagMitigations(b *testing.B) {
	var base, fullIP, pid float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		base = NewLab(Options{Seed: seed}).RunVariant1(V1Options{Bits: 32}).SuccessRate()
		fullIP = positives(NewLab(Options{Seed: seed, FullIPTag: true}).RunVariant1(V1Options{Bits: 32}))
		pid = positives(NewLab(Options{Seed: seed, PIDTag: true}).RunVariant1(V1Options{Bits: 32, CrossProcess: true}))
	}
	b.ReportMetric(base*100, "baseline-success-%")
	b.ReportMetric(fullIP*100, "fullip-signal-%")
	b.ReportMetric(pid*100, "pidtag-signal-%")
}

// positives reports the fraction of rounds that produced any stride signal.
func positives(r LeakResult) float64 {
	n := 0
	for _, inf := range r.Inferred {
		if inf {
			n++
		}
	}
	if len(r.Inferred) == 0 {
		return 0
	}
	return float64(n) / float64(len(r.Inferred))
}

// BenchmarkAblationFlushInterval sweeps the clear-ip-prefetcher period:
// the §8.3 cost scales with flush frequency.
func BenchmarkAblationFlushInterval(b *testing.B) {
	intervals := []uint64{3_000, 30_000, 300_000}
	slow := make([]float64, len(intervals))
	for i := 0; i < b.N; i++ {
		p := trace.SPECLike()[0] // the most prefetch-dependent profile
		records := trace.NewGenerator(p, int64(i+1)).Generate(120_000)
		baseSim, err := champsim.New(champsim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		base := baseSim.Run(records)
		for k, iv := range intervals {
			cfg := champsim.DefaultConfig()
			cfg.FlushIntervalCycles = iv
			s, err := champsim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			r := s.Run(records)
			slow[k] = (1 - r.IPC()/base.IPC()) * 100
		}
	}
	b.ReportMetric(slow[0], "slowdown-%-1us")
	b.ReportMetric(slow[1], "slowdown-%-10us")
	b.ReportMetric(slow[2], "slowdown-%-100us")
}
