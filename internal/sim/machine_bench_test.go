package sim

import (
	"testing"

	"afterimage/internal/mem"
)

// benchMachine builds a quiet Coffee Lake machine with a warmed 16-page
// buffer: the steady-state configuration of the attack hot loops.
func benchMachine(b *testing.B) (*Machine, *Env, *mem.Mapping) {
	b.Helper()
	m := NewMachine(Quiet(CoffeeLake(1)))
	env := m.Direct(m.NewProcess("bench"))
	buf := env.Mmap(16*mem.PageSize, mem.MapLocked)
	for i := 0; i < 16; i++ {
		env.Load(0x400000, buf.Base+mem.VAddr(i)*mem.PageSize)
	}
	return m, env, buf
}

// warmedMachine is benchMachine's machine after 4096 more loads: the warmed
// template a forked sweep forks, then hashes and audits once per point.
func warmedMachine(b *testing.B) *Machine {
	b.Helper()
	m, env, buf := benchMachine(b)
	for i := 0; i < 4096; i++ {
		env.Load(0x400040, buf.Base+mem.VAddr(i%(16*64))*mem.LineSize)
	}
	return m
}

// BenchmarkMachineLoadSteadyState measures the full demand-load path —
// translate, TLB, hierarchy, prefetcher suite, latency histogram — with a
// hot working set. This is the per-access unit every attack and campaign
// multiplies by millions, and the path TestHotPathZeroAlloc pins at zero
// allocations.
func BenchmarkMachineLoadSteadyState(b *testing.B) {
	_, env, buf := benchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Load(0x400040, buf.Base+mem.VAddr(i%(16*64))*mem.LineSize)
	}
}

// BenchmarkMachineLoadStrided measures the load path while the IP-stride
// prefetcher continuously trains and fires (prefetch fills included).
func BenchmarkMachineLoadStrided(b *testing.B) {
	_, env, buf := benchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := mem.VAddr(i%8) * 7 * mem.LineSize
		env.Load(0x400080, buf.Base+off)
	}
}

// BenchmarkMachineTimedLoad includes the measurement overhead and jitter
// draw of the attacker's rdtscp-fenced load.
func BenchmarkMachineTimedLoad(b *testing.B) {
	_, env, buf := benchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.TimeLoad(0x4000c0, buf.Base+mem.VAddr(i%(16*64))*mem.LineSize)
	}
}

// BenchmarkLoadBatch drives the batched load API with 64 ops per call into
// a reused latency buffer — the trace-replay configuration. Each b.N
// iteration is one 64-load batch, so compare ns/op against 64× the
// steady-state single-load number to see what hoisting the per-load
// dispatch buys.
func BenchmarkLoadBatch(b *testing.B) {
	_, env, buf := benchMachine(b)
	ops := make([]LoadOp, 64)
	for i := range ops {
		ops[i] = LoadOp{IP: 0x400040, VA: buf.Base + mem.VAddr(i%(16*64))*mem.LineSize}
	}
	lats := make([]uint64, 0, len(ops))
	for i := 0; i < 64; i++ {
		env.LoadBatch(ops, lats[:0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.LoadBatch(ops, lats[:0])
	}
}

// BenchmarkMachineFork measures one deep-copy fork of a warmed machine —
// the per-point cost the forked sweep mode pays instead of a full boot
// (BenchmarkNewMachine plus campaign warmup).
func BenchmarkMachineFork(b *testing.B) {
	m := warmedMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MustFork()
	}
}

// pointPages sizes pointWorkload's buffer: 20 pages are 1,280 lines, one
// load each, which dirty 1,280 of the Coffee Lake LLC's 12,288 sets (10.4%) —
// between an 8-bit V1 cross-thread point (about 3%) and an 8-bit covert
// channel point (about 16%).
const pointPages = 20

// pointTemplate is warmedMachine plus a locked pointPages buffer that
// pointWorkload walks on each copy.
func pointTemplate(b *testing.B) (*Machine, mem.VAddr) {
	b.Helper()
	m := warmedMachine(b)
	buf := m.Direct(m.Processes()[0]).Mmap(pointPages*mem.PageSize, mem.MapLocked)
	return m, buf.Base
}

// pointWorkload stands in for one sweep point's attack: it loads every line
// of the template's pointPages buffer on m, a copy of the template.
func pointWorkload(m *Machine, base mem.VAddr) {
	env := m.Direct(m.Processes()[0])
	for i := 0; i < pointPages*mem.PageSize/mem.LineSize; i++ {
		env.Load(0x400100, base+mem.VAddr(i)*mem.LineSize)
	}
}

// BenchmarkMachineResetFrom measures the per-point copy a sweep pays
// instead of BenchmarkMachineFork: returning a pooled machine to the
// template after pointWorkload, which copies back only the dirtied cache
// sets and rebuilds the small components.
func BenchmarkMachineResetFrom(b *testing.B) {
	t, base := pointTemplate(b)
	m := t.MustFork()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pointWorkload(m, base)
		b.StartTimer()
		if err := m.ResetFrom(t); err != nil {
			b.Fatal(err)
		}
	}
}

// bootedPoint boots the quiet machine benchMachine starts from and runs
// pointWorkload on a fresh pointPages buffer: the state a sweep point
// without a warmup leaves, whose booted cache levels hash and audit only
// the sets the point dirtied.
func bootedPoint(m *Machine) {
	buf := m.Direct(m.NewProcess("bench")).Mmap(pointPages*mem.PageSize, mem.MapLocked)
	pointWorkload(m, buf.Base)
}

// BenchmarkMachineBoot measures the per-point reset a sweep without a
// warmup pays: Boot(m.Cfg) after bootedPoint, which clears only the
// dirtied cache sets, clears the TLB and reseeds the RNGs in place, and
// rebuilds the other small components. Compare it with
// BenchmarkMachineResetFrom and BenchmarkNewMachine.
func BenchmarkMachineBoot(b *testing.B) {
	m := NewMachine(Quiet(CoffeeLake(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bootedPoint(m)
		b.StartTimer()
		if err := m.Boot(m.Cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// hashSink keeps BenchmarkMachineStateHash's digest live.
var hashSink uint64

// BenchmarkMachineStateHash measures the per-point state digest: one fold
// over every component, dominated by the multi-megabyte LLC arrays. It
// hashes a fork, whose cache levels fold every set.
func BenchmarkMachineStateHash(b *testing.B) {
	f := warmedMachine(b).MustFork()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = f.StateHash()
	}
}

// BenchmarkMachineStateHashBooted is the per-point state digest of a sweep
// point without a warmup: after bootedPoint, the clean cache sets fold as
// zeros without being read.
func BenchmarkMachineStateHashBooted(b *testing.B) {
	m := NewMachine(Quiet(CoffeeLake(1)))
	bootedPoint(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = m.StateHash()
	}
}

// BenchmarkMachineAudit measures the per-point invariant audit of a clean
// machine: every cache set, the TLB, the prefetchers and the scheduler. It
// audits a fork of a machine that was never audited, so its cache levels
// are checked whole.
func BenchmarkMachineAudit(b *testing.B) {
	f := warmedMachine(b).MustFork()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Audit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineAuditTracked measures the per-point final audit a sweep
// pays instead of BenchmarkMachineAudit: Audit after pointWorkload on a
// copy of a template that audited clean, which checks the cache levels
// over their dirty sets only; every other checker runs whole.
func BenchmarkMachineAuditTracked(b *testing.B) {
	t, base := pointTemplate(b)
	if err := t.Audit(); err != nil {
		b.Fatal(err)
	}
	m := t.MustFork()
	pointWorkload(m, base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Audit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineAuditBooted is the per-point final audit of a sweep
// point without a warmup: after bootedPoint, Audit checks the cache levels
// over their dirty sets only; every other checker runs whole.
func BenchmarkMachineAuditBooted(b *testing.B) {
	m := NewMachine(Quiet(CoffeeLake(1)))
	bootedPoint(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Audit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewMachine measures construction cost. A sweep without a warmup
// boots one machine per runner worker and resets it to the constructor
// state for every later point attempt (BenchmarkMachineBoot); the
// fresh-boot reference and one-off experiments boot one per point.
func BenchmarkNewMachine(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMachine(Quiet(CoffeeLake(1)))
	}
}
