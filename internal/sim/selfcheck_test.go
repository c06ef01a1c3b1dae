package sim

import (
	"strings"
	"testing"

	"afterimage/internal/mem"
)

// warmMachine boots a noisy Coffee Lake machine and runs a small direct-env
// workload that populates every audited component: cache lines at all
// levels, TLB entries, and a trained (and fired) IP-stride entry.
func warmMachine(t *testing.T) (*Machine, *Env, *mem.Mapping) {
	t.Helper()
	m := NewMachine(CoffeeLake(1))
	env := m.Direct(m.NewProcess("attacker"))
	buf := env.Mmap(4*mem.PageSize, mem.MapLocked)
	for i := 0; i < 3; i++ {
		env.Load(0x40_0100, buf.Base+mem.VAddr(i*7*mem.LineSize))
	}
	for i := 0; i < 8; i++ {
		env.Load(0x40_0200+uint64(i), buf.Base+mem.VAddr(2*mem.PageSize+i*mem.LineSize))
	}
	return m, env, buf
}

func TestAuditCleanMachine(t *testing.T) {
	m, _, _ := warmMachine(t)
	if err := m.Audit(); err != nil {
		t.Fatalf("clean machine fails audit: %v", err)
	}
	if v := m.AuditViolations(); len(v) != 0 {
		t.Fatalf("clean audit left recorded violations: %v", v)
	}
}

// corruptionCases enumerates every corruption class the fault engine can
// inject — plus the TLB desync — with the audited component each names.
// Shared between the fresh-machine and forked-machine selfcheck suites.
var corruptionCases = []struct {
	name      string
	corrupt   func(t *testing.T, m *Machine)
	component string
}{
	{"stride-overflow", func(t *testing.T, m *Machine) {
		m.Pref.IPStride.CorruptStride(0, m.Cfg.IPStride.MaxStrideBytes+512)
	}, "prefetcher"},
	{"confidence-out-of-range", func(t *testing.T, m *Machine) {
		m.Pref.IPStride.CorruptConfidence(1, m.Cfg.IPStride.MaxConfidence+2)
	}, "prefetcher"},
	{"plru-all-ones", func(t *testing.T, m *Machine) {
		if !m.Pref.IPStride.CorruptPLRU() {
			t.Skip("prefetcher policy not Bit-PLRU")
		}
	}, "prefetcher"},
	{"cross-frame-prefetch", func(t *testing.T, m *Machine) {
		m.Pref.IPStride.CorruptCrossFrame()
	}, "prefetcher"},
	{"inclusivity-break", func(t *testing.T, m *Machine) {
		if !m.Mem.CorruptInclusivity() {
			t.Fatal("no L1 line to corrupt")
		}
	}, "cache"},
	{"tlb-desync", func(t *testing.T, m *Machine) {
		m.TLB.CorruptInsert(m.Kernel.AS.ID, 0x3) // VPN no space ever maps
	}, "tlb"},
}

// auditMustCatch runs one corruption class against the machine and checks
// the audit surfaces it as a typed FaultCorruption naming the component.
func auditMustCatch(t *testing.T, m *Machine, tc struct {
	name      string
	corrupt   func(t *testing.T, m *Machine)
	component string
}) {
	t.Helper()
	if err := m.Audit(); err != nil {
		t.Fatalf("pre-corruption audit dirty: %v", err)
	}
	tc.corrupt(t, m)
	err := m.Audit()
	if err == nil {
		t.Fatal("audit missed the corruption")
	}
	f, ok := AsFault(err)
	if !ok {
		t.Fatalf("audit error not a SimFault: %v", err)
	}
	if f.Kind != FaultCorruption {
		t.Fatalf("fault kind %v, want corruption", f.Kind)
	}
	if !strings.Contains(err.Error(), tc.component) {
		t.Errorf("fault %q does not name component %q", err, tc.component)
	}
}

// TestAuditCatchesCorruptionClasses: every corruption class is caught by
// Machine.Audit on a fresh warmed machine.
func TestAuditCatchesCorruptionClasses(t *testing.T) {
	for _, tc := range corruptionCases {
		t.Run(tc.name, func(t *testing.T) {
			m, _, _ := warmMachine(t)
			auditMustCatch(t, m, tc)
		})
	}
}

// TestAuditViolationOrderFixed: with two components corrupted at once, the
// violations come back in the audit's fixed component order (prefetcher
// before TLB), both in AuditViolations and in the FaultCorruption message
// that ends up in SweepPoint.Err.
func TestAuditViolationOrderFixed(t *testing.T) {
	m, _, _ := warmMachine(t)
	m.TLB.CorruptInsert(m.Kernel.AS.ID, 0x3)
	m.Pref.IPStride.CorruptStride(0, m.Cfg.IPStride.MaxStrideBytes+512)
	err := m.Audit()
	if f, ok := AsFault(err); !ok || f.Kind != FaultCorruption {
		t.Fatalf("got %v, want a corruption SimFault", err)
	}
	var comps []string
	for _, v := range m.AuditViolations() {
		if len(comps) == 0 || comps[len(comps)-1] != v.Component {
			comps = append(comps, v.Component)
		}
	}
	if strings.Join(comps, ",") != "prefetcher.ipstride,tlb" {
		t.Fatalf("violation components %v, want [prefetcher.ipstride tlb]", comps)
	}
	msg := err.Error()
	if p, tl := strings.Index(msg, "prefetcher.ipstride: "), strings.Index(msg, "; tlb: "); p < 0 || tl < p {
		t.Fatalf("fault message lists tlb before prefetcher.ipstride: %q", msg)
	}
}

// TestAuditCadenceThrowsOnTaskGoroutine: with AuditEvery=1, state corrupted
// mid-run is detected at the next domain switch and the fault surfaces
// through RunChecked — on the task, not the scheduler goroutine.
func TestAuditCadenceThrowsOnTaskGoroutine(t *testing.T) {
	m := NewMachine(Quiet(CoffeeLake(1)))
	m.SetAuditEvery(1)
	p := m.NewProcess("p")
	buf := m.Direct(p).Mmap(mem.PageSize, mem.MapLocked)
	m.Spawn(p, "corruptor", func(e *Env) {
		e.Load(0x100, buf.Base)
		m.Pref.IPStride.CorruptStride(0, m.Cfg.IPStride.MaxStrideBytes+512)
		for i := 0; i < 50; i++ {
			e.Yield()
			e.Load(0x101, buf.Base+mem.VAddr(i%8*mem.LineSize))
		}
	})
	m.Spawn(p, "bystander", func(e *Env) {
		for i := 0; i < 50; i++ {
			e.Yield()
		}
	})
	_, err := m.RunChecked()
	if err == nil {
		t.Fatal("cadence audit did not surface the corruption")
	}
	f, ok := AsFault(err)
	if !ok || f.Kind != FaultCorruption {
		t.Fatalf("got %v, want a corruption SimFault", err)
	}
}

// TestAuditCadenceIsReadOnly: a clean run with the cadence enabled ends in
// exactly the state a cadence-free run reaches — audits never perturb.
func TestAuditCadenceIsReadOnly(t *testing.T) {
	run := func(every int) uint64 {
		m := NewMachine(CoffeeLake(7))
		m.SetAuditEvery(every)
		p := m.NewProcess("p")
		buf := m.Direct(p).Mmap(mem.PageSize, mem.MapLocked)
		for task := 0; task < 2; task++ {
			task := task
			m.Spawn(p, "t", func(e *Env) {
				for i := 0; i < 30; i++ {
					e.Load(0x200+uint64(task), buf.Base+mem.VAddr(i%16*mem.LineSize))
					e.Yield()
				}
			})
		}
		m.Run()
		return m.StateHash()
	}
	if off, on := run(0), run(1); off != on {
		t.Fatalf("cadence changed the final state: %#x (off) vs %#x (every=1)", off, on)
	}
}

// TestStateHashComparableAcrossMachines: two machines with the same seed
// and workload hash identically even though their raw ASIDs differ (the
// process-global allocator keeps counting) — the normalization contract.
func TestStateHashComparableAcrossMachines(t *testing.T) {
	build := func() *Machine {
		m, _, _ := warmMachine(t)
		return m
	}
	a, b := build(), build()
	if a.Kernel.AS.ID == b.Kernel.AS.ID {
		t.Fatal("test broken: both machines share raw ASIDs")
	}
	ha, hb := a.ComponentHashes(), b.ComponentHashes()
	for name, va := range ha {
		if vb, ok := hb[name]; !ok || va != vb {
			t.Errorf("component %s: %#x vs %#x", name, va, vb)
		}
	}
	if a.StateHash() != b.StateHash() {
		t.Fatal("machine hashes differ for identical seed and workload")
	}
}

// TestStateHashGolden pins the full-state digest of a fixed seed and
// workload. A change here without an intentional simulator change is a
// determinism regression; an intentional change must update the constant
// (and invalidates recorded replay checkpoints).
func TestStateHashGolden(t *testing.T) {
	m, _, _ := warmMachine(t)
	// Updated when statehash moved to word-granularity FNV folding (the
	// octet fold dominated sweep-point cost); the digest definition change
	// was intentional and invalidates checkpoints recorded before it.
	const golden = uint64(0x57f7191f26856d34)
	got := m.StateHash()
	if got != golden {
		t.Fatalf("state hash %#x, want golden %#x", got, golden)
	}
}
