package sim

import (
	"testing"

	"afterimage/internal/cache"
	"afterimage/internal/mem"
)

func quietMachine() *Machine { return NewMachine(Quiet(CoffeeLake(1))) }

func TestLoadLatencyLevels(t *testing.T) {
	m := quietMachine()
	p := m.NewProcess("p")
	env := m.Direct(p)
	buf := env.Mmap(mem.PageSize, mem.MapLocked)
	env.WarmTLB(buf.Base)
	cold := env.Load(0x100, buf.Base)
	warm := env.Load(0x101, buf.Base)
	if cold <= warm {
		t.Fatalf("cold=%d warm=%d", cold, warm)
	}
	if warm != m.Cfg.Hierarchy.Lat.L1+1 {
		t.Fatalf("warm latency = %d, want L1+issue", warm)
	}
}

func TestTimeLoadThresholdSeparation(t *testing.T) {
	m := quietMachine()
	p := m.NewProcess("p")
	env := m.Direct(p)
	buf := env.Mmap(mem.PageSize, mem.MapLocked)
	env.WarmTLB(buf.Base)
	miss := env.TimeLoad(0x100, buf.Base)
	hit := env.TimeLoad(0x101, buf.Base)
	thr := env.HitThreshold()
	if hit >= thr {
		t.Fatalf("hit %d above threshold %d", hit, thr)
	}
	if miss < thr {
		t.Fatalf("miss %d below threshold %d", miss, thr)
	}
}

func TestFlushEvictsLine(t *testing.T) {
	m := quietMachine()
	env := m.Direct(m.NewProcess("p"))
	buf := env.Mmap(mem.PageSize, mem.MapLocked)
	env.WarmTLB(buf.Base)
	env.Load(0x100, buf.Base)
	if !env.Cached(buf.Base) {
		t.Fatal("line not cached after load")
	}
	env.Flush(buf.Base)
	if env.Cached(buf.Base) {
		t.Fatal("line cached after clflush")
	}
}

func TestClockAdvancesMonotonically(t *testing.T) {
	m := quietMachine()
	env := m.Direct(m.NewProcess("p"))
	buf := env.Mmap(mem.PageSize, mem.MapLocked)
	last := env.Now()
	for i := 0; i < 10; i++ {
		env.Load(0x100, buf.Base+mem.VAddr(i*64))
		if env.Now() <= last {
			t.Fatal("clock did not advance")
		}
		last = env.Now()
	}
}

func TestSchedulerRoundRobinDeterministic(t *testing.T) {
	run := func() (order []string, cycles uint64) {
		m := quietMachine()
		p1 := m.NewProcess("a")
		p2 := m.NewProcess("b")
		body := func(name string) func(*Env) {
			return func(e *Env) {
				for i := 0; i < 3; i++ {
					order = append(order, name)
					e.Yield()
				}
			}
		}
		m.Spawn(p1, "t1", body("a"))
		m.Spawn(p2, "t2", body("b"))
		cycles = m.Run()
		return order, cycles
	}
	o1, c1 := run()
	o2, c2 := run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(o1) != len(want) {
		t.Fatalf("order %v", o1)
	}
	for i := range want {
		if o1[i] != want[i] {
			t.Fatalf("order %v, want %v", o1, want)
		}
	}
	if c1 != c2 {
		t.Fatalf("nondeterministic cycles: %d vs %d", c1, c2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("nondeterministic order")
		}
	}
}

func TestProcessSwitchKeepsPCIDTaggedTLB(t *testing.T) {
	m := NewMachine(CoffeeLake(2))
	p1 := m.NewProcess("a")
	p2 := m.NewProcess("b")
	var survived, crossVisible bool
	var base mem.VAddr
	m.Spawn(p1, "t1", func(e *Env) {
		buf := e.Mmap(mem.PageSize, mem.MapLocked)
		base = buf.Base
		e.WarmTLB(buf.Base)
		e.Yield() // PCID-tagged entries survive the switch
		survived = m.TLB.Contains(p1.AS.ID, buf.Base)
	})
	m.Spawn(p2, "t2", func(e *Env) {
		// The same virtual address under another ASID must not hit.
		crossVisible = m.TLB.Contains(p2.AS.ID, base)
		e.Yield()
	})
	m.Run()
	if !survived {
		t.Fatal("PCID-tagged TLB entry lost across a process switch")
	}
	if crossVisible {
		t.Fatal("TLB entry visible under a foreign ASID")
	}
	if m.DomainSwitches() == 0 {
		t.Fatal("no domain switches counted")
	}
}

func TestSyscallRunsInKernelDomain(t *testing.T) {
	m := quietMachine()
	var dom Domain
	var pid int
	m.RegisterSyscall(333, func(e *Env, args ...uint64) uint64 {
		dom = e.Domain()
		pid = e.PID()
		return 42
	})
	env := m.Direct(m.NewProcess("p"))
	if got := env.Syscall(333); got != 42 {
		t.Fatalf("syscall returned %d", got)
	}
	if dom != DomainKernel || pid != KernelPID {
		t.Fatalf("handler ran as %v pid %d", dom, pid)
	}
}

func TestSyscallLoadUserTranslatesCallerSpace(t *testing.T) {
	m := quietMachine()
	env := m.Direct(m.NewProcess("p"))
	buf := env.Mmap(mem.PageSize, mem.MapShared)
	env.WarmTLB(buf.Base)
	m.RegisterSyscall(1, func(e *Env, args ...uint64) uint64 {
		e.LoadUser(0xffffffff81000040, mem.VAddr(args[0]))
		return 0
	})
	env.Syscall(1, uint64(buf.Base))
	if !env.Cached(buf.Base) {
		t.Fatal("kernel's user-space load did not cache the user line")
	}
}

func TestUnknownSyscallPanics(t *testing.T) {
	m := quietMachine()
	env := m.Direct(m.NewProcess("p"))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	env.Syscall(999)
}

func TestSegfaultPanics(t *testing.T) {
	m := quietMachine()
	env := m.Direct(m.NewProcess("p"))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	env.Load(0x1, 0xdeadbeef)
}

// TestSGXPrefetchSurvivesExit reproduces §4.6: strided loads inside the
// enclave trigger the shared prefetcher, and the prefetched line is still a
// cache hit in the untrusted zone after EEXIT.
func TestSGXPrefetchSurvivesExit(t *testing.T) {
	m := quietMachine()
	env := m.Direct(m.NewProcess("p"))
	buf := env.Mmap(mem.PageSize, mem.MapLocked)
	env.WarmTLB(buf.Base)
	stride := mem.VAddr(5 * 64)
	var last mem.VAddr
	env.EnclaveCall(func(ee *Env) {
		if ee.Domain() != DomainEnclave {
			t.Fatal("not in enclave domain")
		}
		for i := 0; i < 8; i++ {
			last = buf.Base + mem.VAddr(i)*stride
			ee.Load(0x7ff0_0000_0010, last)
		}
	})
	target := last + stride
	if lat := env.TimeLoad(0x33, target); lat >= env.HitThreshold() {
		t.Fatalf("prefetched enclave line missed after exit: %d cycles", lat)
	}
}

func TestSecondsConversion(t *testing.T) {
	m := quietMachine()
	if got := m.Seconds(3_000_000_000); got != 1.0 {
		t.Fatalf("3G cycles at 3GHz = %v s", got)
	}
}

func TestQuietConfigSuppressesNoise(t *testing.T) {
	cfg := Quiet(CoffeeLake(1))
	if cfg.Noise.KernelLines != 0 || cfg.Noise.KernelIPLoads != 0 {
		t.Fatal("Quiet kept kernel noise")
	}
}

func TestTable2Configs(t *testing.T) {
	cl := CoffeeLake(1)
	hw := Haswell(1)
	if cl.Cores != 8 || hw.Cores != 4 {
		t.Fatal("core counts do not match Table 2")
	}
	if cl.Hierarchy.LLC.SizeBytes != 12<<20 || hw.Hierarchy.LLC.SizeBytes != 8<<20 {
		t.Fatal("LLC sizes do not match Table 2")
	}
	if cl.ASLRSeed == 0 || hw.ASLRSeed == 0 {
		t.Fatal("ASLR must be enabled as in Table 2")
	}
	for _, cfg := range []Config{cl, hw} {
		m := NewMachine(cfg)
		if m.Mem.LLC.NumSlices() != cfg.Cores {
			t.Fatalf("%s: slices=%d, want one per core", cfg.Name, m.Mem.LLC.NumSlices())
		}
	}
}

func TestMitigationFlushOnSwitch(t *testing.T) {
	cfg := Quiet(CoffeeLake(3))
	cfg.FlushPrefetcherOnSwitch = true
	m := NewMachine(cfg)
	p1 := m.NewProcess("a")
	p2 := m.NewProcess("b")
	var entriesAfter int
	m.Spawn(p1, "t1", func(e *Env) {
		buf := e.Mmap(mem.PageSize, mem.MapLocked)
		e.WarmTLB(buf.Base)
		for i := 0; i < 4; i++ {
			e.Load(0x42, buf.Base+mem.VAddr(i*7*64))
		}
		e.Yield()
	})
	m.Spawn(p2, "t2", func(e *Env) {
		for _, en := range m.Pref.IPStride.Entries() {
			if en.Valid {
				entriesAfter++
			}
		}
	})
	m.Run()
	if entriesAfter != 0 {
		t.Fatalf("%d prefetcher entries survived a mitigated switch", entriesAfter)
	}
}

func TestDomainStrings(t *testing.T) {
	for _, d := range []Domain{DomainUser, DomainKernel, DomainEnclave} {
		if d.String() == "" {
			t.Fatal("empty domain string")
		}
	}
}

func TestProbeOracleMatchesLatency(t *testing.T) {
	m := quietMachine()
	env := m.Direct(m.NewProcess("p"))
	buf := env.Mmap(mem.PageSize, mem.MapLocked)
	env.WarmTLB(buf.Base)
	if env.Probe(buf.Base) != cache.LevelDRAM {
		t.Fatal("cold probe not DRAM")
	}
	env.Load(0x9, buf.Base)
	if env.Probe(buf.Base) != cache.LevelL1 {
		t.Fatal("warm probe not L1")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	m := quietMachine()
	env := m.Direct(m.NewProcess("p"))
	perm := env.Shuffle(64)
	seen := make([]bool, 64)
	for _, v := range perm {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[v] = true
	}
}

// ipstrideAllocs reads the IP-stride allocation counter from the machine's
// metrics registry.
func ipstrideAllocs(m *Machine) uint64 {
	v, _ := m.Telemetry().Registry().Snapshot().Get("prefetcher.ipstride.allocs")
	return v
}

func TestSyscallNoiseDisturbsPrefetcher(t *testing.T) {
	m := NewMachine(CoffeeLake(5)) // noisy config
	m.RegisterSyscall(7, func(e *Env, args ...uint64) uint64 { return 0 })
	env := m.Direct(m.NewProcess("p"))
	before := ipstrideAllocs(m)
	for i := 0; i < 4; i++ {
		env.Syscall(7)
	}
	if after := ipstrideAllocs(m); after == before {
		t.Fatal("syscall path produced no prefetcher activity (noise model dead)")
	}
}

func TestQuietSyscallIsSilent(t *testing.T) {
	m := quietMachine()
	m.RegisterSyscall(7, func(e *Env, args ...uint64) uint64 { return 0 })
	env := m.Direct(m.NewProcess("p"))
	before := ipstrideAllocs(m)
	env.Syscall(7)
	if after := ipstrideAllocs(m); after != before {
		t.Fatal("quiet machine's syscall touched the prefetcher")
	}
}

func TestFlushRange(t *testing.T) {
	m := quietMachine()
	env := m.Direct(m.NewProcess("p"))
	buf := env.Mmap(mem.PageSize, mem.MapLocked)
	env.WarmTLB(buf.Base)
	for i := 0; i < 4; i++ {
		env.Load(0x9, buf.Base+mem.VAddr(i*64))
	}
	env.FlushRange(buf.Base, 4*64)
	for i := 0; i < 4; i++ {
		if env.Cached(buf.Base + mem.VAddr(i*64)) {
			t.Fatalf("line %d survived FlushRange", i)
		}
	}
}

func TestLoadUserOutsideKernelPanics(t *testing.T) {
	m := quietMachine()
	env := m.Direct(m.NewProcess("p"))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	env.LoadUser(0x1, 0x1000)
}

func TestDirectYieldAdvancesTime(t *testing.T) {
	m := quietMachine()
	env := m.Direct(m.NewProcess("p"))
	t0 := env.Now()
	env.Yield()
	if env.Now() <= t0 {
		t.Fatal("direct yield did not advance the clock")
	}
}

func TestEnclavePIDMatchesProcess(t *testing.T) {
	m := quietMachine()
	p := m.NewProcess("app")
	env := m.Direct(p)
	var pid int
	env.EnclaveCall(func(e *Env) { pid = e.PID() })
	if pid != p.PID {
		t.Fatalf("enclave PID %d, want %d (prefetcher sharing per §4.6)", pid, p.PID)
	}
}

// TestRandomScheduleInvariants property-tests the machine under random
// attacker/victim-style op sequences: the clock is monotone, no operation
// panics on mapped memory, and two identical machines stay in lock-step.
func TestRandomScheduleInvariants(t *testing.T) {
	run := func(seed int64) uint64 {
		m := NewMachine(CoffeeLake(seed))
		pa := m.NewProcess("a")
		pb := m.NewProcess("b")
		bufA := m.Direct(pa).Mmap(4*mem.PageSize, mem.MapLocked)
		bufB := m.Direct(pb).Mmap(4*mem.PageSize, mem.MapLocked)
		body := func(buf mem.VAddr, ipBase uint64) func(*Env) {
			return func(e *Env) {
				last := e.Now()
				for i := 0; i < 200; i++ {
					// Deterministic pseudo-random op mix derived from i.
					op := (i*2654435761 + int(ipBase)) % 5
					addr := buf + mem.VAddr((i*37%256)*64)
					switch op {
					case 0:
						e.WarmTLB(addr)
						e.Load(ipBase+uint64(i%256), addr)
					case 1:
						e.TimeLoad(ipBase+uint64(i%16), addr)
					case 2:
						e.Flush(addr)
					case 3:
						e.Fence()
					default:
						e.Yield()
					}
					if e.Now() < last {
						t.Error("clock went backwards")
						return
					}
					last = e.Now()
				}
			}
		}
		m.Spawn(pa, "a", body(bufA.Base, 0x1000))
		m.Spawn(pb, "b", body(bufB.Base, 0x2000))
		m.Run()
		return m.Now()
	}
	for seed := int64(0); seed < 5; seed++ {
		c1 := run(seed)
		c2 := run(seed)
		if c1 != c2 {
			t.Fatalf("seed %d: nondeterministic final clock %d vs %d", seed, c1, c2)
		}
	}
}

// TestSMTSliceGranularity checks the implicit interleave fires at the
// configured operation count.
func TestSMTSliceGranularity(t *testing.T) {
	cfg := Quiet(CoffeeLake(6))
	cfg.SMT.Enabled = true
	cfg.SMT.OpsPerSlice = 3
	m := NewMachine(cfg)
	pa := m.NewProcess("a")
	pb := m.NewProcess("b")
	bufA := m.Direct(pa).Mmap(mem.PageSize, mem.MapLocked)
	var order []string
	m.Spawn(pa, "a", func(e *Env) {
		e.WarmTLB(bufA.Base)
		for i := 0; i < 9; i++ {
			order = append(order, "a")
			e.Load(0x1, bufA.Base+mem.VAddr(i*64))
		}
	})
	m.Spawn(pb, "b", func(e *Env) {
		for i := 0; i < 3; i++ {
			order = append(order, "b")
			e.Sleep(10)
		}
	})
	m.Run()
	// With 3 ops per slice, task a runs 3 loads, then b runs its 3 sleeps
	// (its whole body), then a finishes alone.
	want := []string{"a", "a", "a", "b", "b", "b", "a", "a", "a", "a", "a", "a"}
	if len(order) != len(want) {
		t.Fatalf("interleave %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("interleave %v, want %v", order, want)
		}
	}
}
