package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"afterimage/internal/cache"
	"afterimage/internal/detrand"
	"afterimage/internal/mem"
	"afterimage/internal/prefetcher"
	"afterimage/internal/telemetry"
	"afterimage/internal/tlb"
)

// Domain is the privilege domain a task executes in.
type Domain int

// Privilege domains.
const (
	DomainUser Domain = iota
	DomainKernel
	DomainEnclave
)

// String names the domain.
func (d Domain) String() string {
	switch d {
	case DomainUser:
		return "user"
	case DomainKernel:
		return "kernel"
	case DomainEnclave:
		return "enclave"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// KernelPID is the context ID used for kernel-mode accesses.
const KernelPID = -1

// Process owns an address space.
type Process struct {
	PID  int
	Name string
	AS   *mem.AddressSpace
}

// SyscallHandler services one syscall number. The Env it receives executes
// in the kernel domain but can still translate the calling process's
// addresses via LoadUser/FlushUser (the kernel may touch user pages, as
// copy_from_user does).
type SyscallHandler func(e *Env, args ...uint64) uint64

// Machine is one simulated logical core plus its memory system.
type Machine struct {
	Cfg  Config
	Mem  *cache.Hierarchy
	TLB  *tlb.TLB
	Pref *prefetcher.Suite
	Phys *mem.PhysMemory

	Kernel *Process

	clock    uint64
	nextPID  int
	procs    []*Process
	syscalls map[int]SyscallHandler

	// jitter/noise are counting-source RNGs so their positions hash and
	// clone (detrand is stream-identical to the plain sources they replaced).
	jitter    *rand.Rand
	noise     *rand.Rand
	jitterSrc *detrand.Source
	noiseSrc  *detrand.Source
	smtOps    int

	// noiseRegion backs the kernel lines touched on context switches.
	noiseRegion *mem.Mapping

	sched *scheduler

	// budgetLimit is the absolute clock value past which Env operations
	// fault with FaultBudget (0 = no watchdog). Set from Config.MaxCycles
	// and overridden for the duration of a RunBudget call.
	budgetLimit uint64

	// cancel, when installed, is polled on the budget-watchdog path: a
	// non-nil return faults the current operation with FaultBudget, so a
	// revoked context (campaign cancellation, per-job wall deadline)
	// terminates a run the same deterministic way a cycle overrun does.
	// cancelTick throttles the poll to every cancelPollMask+1 operations.
	cancel     func() error
	cancelTick uint64

	// pert receives control after every clock advance (fault injection);
	// inPerturb guards against recursion while a perturbation itself
	// advances the clock.
	pert      Perturber
	inPerturb bool

	// tel is the machine's observability hub: registry samplers over every
	// component's counters, the (off-by-default) event bus, and phase spans.
	tel *telemetry.Hub

	// The mem.load.latency histogram of demand loads, in plain fields:
	// only the machine's own goroutine writes them, and the registry reads
	// them at rest through a sampler, like every other machine counter.
	// latBounds are the ascending bucket upper bounds, latCounts holds one
	// count per bucket plus the overflow bucket, and latSum the sum.
	latBounds [5]uint64
	latCounts [6]uint64
	latSum    uint64

	// auditEvery enables the audit cadence: a full Audit every N domain
	// switches (0 = disabled). sinceAudit counts switches since the last one.
	auditEvery     int
	sinceAudit     int
	auditRuns      uint64
	auditViolation uint64

	// lastViolations holds the violations of the most recent failing audit,
	// for diagnosis after the fault surfaces.
	lastViolations []Violation

	// auditClean and auditClock stamp the most recent audit: whether it
	// found nothing, and the clock it ran at. A machine forked or reset
	// from this one reads the stamp to scope its own audit (see Audit).
	// Every boot or copy rebuilds the machine, and so clears the stamp.
	auditClean bool
	auditClock uint64

	// pendingFault carries an audit fault raised on the scheduler's run-loop
	// goroutine (inside domainSwitch) to a task goroutine: checkBudget
	// throws it at the next Env operation, so it routes through the normal
	// task-fault recovery instead of unwinding the scheduler loop itself.
	pendingFault *SimFault

	// Counters.
	domainSwitches uint64
	syscallCount   uint64

	// origin is the machine this one was last forked or reset from (nil
	// after a boot), and originClock and originCopies were origin's clock
	// and copies then. copies counts how often a boot, Fork or ResetFrom
	// wrote this machine, so a reset source whose clock returns to an
	// earlier value still reads as changed.
	origin       *Machine
	originClock  uint64
	originCopies uint64
	copies       uint64
}

// Perturber is a fault-injection hook: Perturb is invoked after every clock
// advance with the new cycle count, on whichever goroutine holds the core.
// Implementations may mutate microarchitectural state (flush the prefetcher
// table, shoot down the TLB, inject kernel noise) through the machine's
// public API; clock advances they cause do not re-enter the hook.
type Perturber interface {
	Perturb(m *Machine, now uint64)
}

// SetPerturber installs (or, with nil, removes) the fault-injection hook.
func (m *Machine) SetPerturber(p Perturber) { m.pert = p }

// NewMachine builds a machine from its config, panicking on an invalid
// configuration; NewMachineChecked is the error-returning variant.
func NewMachine(cfg Config) *Machine {
	m, err := NewMachineChecked(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NewMachineChecked builds a machine from its config, returning an error for
// invalid cache or prefetcher geometry instead of panicking.
func NewMachineChecked(cfg Config) (*Machine, error) {
	h, err := cache.NewHierarchy(cfg.Hierarchy)
	if err != nil {
		return nil, fmt.Errorf("sim: invalid hierarchy: %w", err)
	}
	if err := validIPStride(cfg); err != nil {
		return nil, err
	}
	m := &Machine{}
	if err := m.boot(cfg, h); err != nil {
		return nil, err
	}
	return m, nil
}

// Boot returns the machine to the state NewMachine(cfg) builds, in place,
// whatever it ran before: another seed, Quiet or mitigation settings,
// injected faults or planted corruption. The cache arrays, the TLB and the
// jitter and noise RNGs are kept and cleared or reseeded; the rest is
// rebuilt by NewMachineChecked's own body. A cache level whose origin is
// nil clears only the sets it dirtied since it was booted, any other level
// every set (cache.Hierarchy.Boot). Sweeps without a warmup recycle point
// machines this way, and afterimage.NewLab boots an idle machine instead
// of building one.
//
// Machines forked or reset from the receiver see it as changed. Boot
// refuses while the scheduler is mid-run, and when cfg's hierarchy or TLB
// configuration differs from the machine's (a Haswell config on a Coffee
// Lake machine): their arrays are what Boot keeps. It rejects an invalid
// IP-stride config before touching the machine.
func (m *Machine) Boot(cfg Config) error {
	if m.sched.running || cfg.Hierarchy != m.Cfg.Hierarchy || cfg.TLB != m.Cfg.TLB {
		return &SimFault{
			Kind: FaultAPIMisuse, Domain: DomainUser, Cycle: m.clock,
			Msg: fmt.Sprintf("Boot of %q on a %q machine during an active scheduler run or onto another cache or TLB geometry", cfg.Name, m.Cfg.Name),
		}
	}
	if err := validIPStride(cfg); err != nil {
		return err
	}
	m.Mem.Boot()
	return m.boot(cfg, m.Mem)
}

// validIPStride checks the part of cfg the hierarchy constructor does not.
func validIPStride(cfg Config) error {
	if err := cfg.IPStride.Validate(); err != nil {
		return fmt.Errorf("sim: invalid IP-stride config: %w", err)
	}
	return nil
}

// boot is the body of NewMachineChecked and Boot: it overwrites m with a
// machine built from cfg around h, a hierarchy in its constructor state. A
// TLB and jitter and noise RNGs that m already holds are returned to their
// constructor state in place rather than built anew.
func (m *Machine) boot(cfg Config, h *cache.Hierarchy) error {
	suite := &prefetcher.Suite{
		IPStride: prefetcher.NewIPStride(cfg.IPStride),
		DCU:      &prefetcher.DCU{Enabled: cfg.DCUEnabled},
		DPL:      &prefetcher.DPL{Enabled: cfg.DPLEnabled},
		Streamer: prefetcher.NewStreamer(2),
	}
	suite.Streamer.Enabled = cfg.StreamerEnabled
	tl, jitter, jitterSrc, noise, noiseSrc := m.TLB, m.jitter, m.jitterSrc, m.noise, m.noiseSrc
	if tl == nil {
		tl = tlb.New(cfg.TLB)
		jitter, jitterSrc = detrand.New(cfg.Seed + 7)
		noise, noiseSrc = detrand.New(cfg.Seed + 13)
	} else {
		tl.Reset()
		jitter.Seed(cfg.Seed + 7)
		noise.Seed(cfg.Seed + 13)
	}
	*m = Machine{
		Cfg:      cfg,
		Mem:      h,
		TLB:      tl,
		Pref:     suite,
		Phys:     mem.NewPhysMemory(cfg.PhysMem),
		syscalls: make(map[int]SyscallHandler),
		copies:   m.copies + 1,

		jitter:    jitter,
		jitterSrc: jitterSrc,
		noise:     noise,
		noiseSrc:  noiseSrc,
	}
	m.budgetLimit = cfg.MaxCycles
	m.Kernel = &Process{PID: KernelPID, Name: "kernel",
		AS: mem.NewAddressSpace("kernel", m.Phys, kaslrSeed(cfg))}
	noiseRegion, err := m.Kernel.AS.Mmap(64*mem.PageSize, mem.MapLocked)
	if err != nil {
		return fmt.Errorf("sim: kernel noise region: %w", err)
	}
	m.noiseRegion = noiseRegion
	m.sched = newScheduler(m)

	m.newTelemetry()
	return nil
}

// newTelemetry gives the machine a fresh observability hub whose samplers
// close over this machine's own counters. Construction and Fork both call
// it, so a fork never reads its parent's metrics.
func (m *Machine) newTelemetry() {
	m.tel = telemetry.NewHub()
	m.tel.SetClock(func() uint64 { return m.clock })
	reg := m.tel.Registry()
	m.Mem.RegisterMetrics(reg)
	m.TLB.RegisterMetrics(reg)
	m.Pref.RegisterMetrics(reg)
	m.Pref.SetTelemetry(m.tel)
	reg.RegisterFunc("sched.switches", func() uint64 { return m.domainSwitches })
	reg.RegisterFunc("sched.syscalls", func() uint64 { return m.syscallCount })
	reg.RegisterFunc("audit.runs", func() uint64 { return m.auditRuns })
	reg.RegisterFunc("audit.violations", func() uint64 { return m.auditViolation })
	// Bucket bounds straddle the configured level latencies and the hit/miss
	// threshold, so the histogram separates L1/L2/LLC/DRAM populations.
	cfg := m.Cfg
	m.latBounds = [5]uint64{
		cfg.Hierarchy.Lat.L1 + 1, cfg.Hierarchy.Lat.L2 + 1, cfg.Hierarchy.Lat.LLC + 1,
		cfg.Measure.HitThreshold, cfg.Hierarchy.Lat.DRAM + cfg.TLB.WalkLatency + 1,
	}
	slices.Sort(m.latBounds[:])
	reg.RegisterHistogramFunc("mem.load.latency", m.latencySnapshot)
}

// observeLatency counts one demand-load latency into the first bucket whose
// bound is >= v, as telemetry.Histogram.Observe does. The bounds ascend, so
// that bucket's index is the number of bounds below v: the sum of five
// borrows, each 1 exactly when its bound is below v, with no branch.
func (m *Machine) observeLatency(v uint64) {
	b := &m.latBounds
	_, c0 := bits.Sub64(b[0], v, 0)
	_, c1 := bits.Sub64(b[1], v, 0)
	_, c2 := bits.Sub64(b[2], v, 0)
	_, c3 := bits.Sub64(b[3], v, 0)
	_, c4 := bits.Sub64(b[4], v, 0)
	m.latCounts[c0+c1+c2+c3+c4]++
	m.latSum += v
}

// latencySnapshot reads the load-latency histogram for the registry.
func (m *Machine) latencySnapshot() telemetry.HistogramSnapshot {
	s := telemetry.HistogramSnapshot{
		Bounds: append([]uint64(nil), m.latBounds[:]...),
		Counts: append([]uint64(nil), m.latCounts[:]...),
		Sum:    m.latSum,
	}
	for _, c := range m.latCounts {
		s.Count += c
	}
	return s
}

// Telemetry returns the machine's observability hub.
func (m *Machine) Telemetry() *telemetry.Hub { return m.tel }

func kaslrSeed(cfg Config) int64 {
	if cfg.ASLRSeed == 0 {
		return 0
	}
	return cfg.ASLRSeed + 1
}

// NewProcess creates a user process with its own (ASLR-randomised) address
// space.
func (m *Machine) NewProcess(name string) *Process {
	m.nextPID++
	var seed int64
	if m.Cfg.ASLRSeed != 0 {
		seed = m.Cfg.ASLRSeed + int64(m.nextPID)*997
	}
	p := &Process{PID: m.nextPID, Name: name,
		AS: mem.NewAddressSpace(name, m.Phys, seed)}
	m.procs = append(m.procs, p)
	return p
}

// RegisterSyscall installs a kernel service routine.
func (m *Machine) RegisterSyscall(num int, h SyscallHandler) {
	m.syscalls[num] = h
}

// Now reports the current cycle count.
func (m *Machine) Now() uint64 { return m.clock }

// Seconds converts a cycle count to wall-clock seconds at the configured
// frequency.
func (m *Machine) Seconds(cycles uint64) float64 {
	return float64(cycles) / (m.Cfg.GHz * 1e9)
}

// DomainSwitches reports how many domain/context switches have occurred.
func (m *Machine) DomainSwitches() uint64 { return m.domainSwitches }

// advance moves the clock forward and hands control to the fault-injection
// hook, if any.
func (m *Machine) advance(cycles uint64) {
	m.clock += cycles
	if m.pert != nil && !m.inPerturb {
		m.inPerturb = true
		m.pert.Perturb(m, m.clock)
		m.inPerturb = false
	}
}

// checkBudget enforces the cycle watchdog: once the clock is past the budget
// limit, the calling Env operation faults. The panic is recovered at the
// task-goroutine boundary (or the Lab API boundary for Direct envs) and
// surfaces as a typed *SimFault, so runaway and never-yielding tasks
// terminate deterministically.
func (m *Machine) checkBudget(e *Env) {
	if m.pendingFault != nil {
		f := m.pendingFault
		m.pendingFault = nil
		if f.Task == "" && e.task != nil {
			f.Task = e.task.name
		}
		panic(f)
	}
	if m.budgetLimit != 0 && m.clock > m.budgetLimit {
		f := &SimFault{
			Kind: FaultBudget, Domain: e.domain, Cycle: m.clock, IP: e.lastIP,
			Msg: fmt.Sprintf("cycle budget %d exceeded", m.budgetLimit),
		}
		if e.task != nil {
			f.Task = e.task.name
		}
		panic(f)
	}
	if m.cancel != nil {
		if m.cancelTick++; m.cancelTick&cancelPollMask == 0 {
			if cerr := m.cancel(); cerr != nil {
				f := &SimFault{
					Kind: FaultBudget, Domain: e.domain, Cycle: m.clock, IP: e.lastIP,
					Msg: "run canceled: " + cerr.Error(),
				}
				if e.task != nil {
					f.Task = e.task.name
				}
				panic(f)
			}
		}
	}
}

// cancelPollMask throttles the cancellation poll to one context check per
// 256 simulated operations — cheap enough for the hot path while still
// reacting to a revoked deadline within microseconds of wall time.
const cancelPollMask = 255

// SetCancel installs (or, with nil, removes) a cancellation probe on the
// budget-watchdog path. The probe returns a non-nil error once the run
// should stop — typically context.Context.Err — and the next polled
// operation then faults with a FaultBudget SimFault, terminating the run
// through the same recover boundary as a cycle overrun.
func (m *Machine) SetCancel(fn func() error) {
	m.cancel = fn
	m.cancelTick = 0
}

// load performs one demand load in the context (pid, as) and returns its
// latency. It drives the TLB, the hierarchy and the prefetchers, and fills
// prefetch targets.
func (m *Machine) load(ip uint64, v mem.VAddr, pid int, as *mem.AddressSpace) uint64 {
	pa, ok := as.Translate(v)
	if !ok {
		panic(&SimFault{
			Kind: FaultSegfault, Cycle: m.clock, IP: ip, Addr: v, Space: as.Name,
		})
	}
	tlbHit, walk := m.TLB.Lookup(as.ID, v)
	level, lat := m.Mem.Load(pa)
	latency := lat + walk + 1 // +1 issue cycle
	m.observeLatency(latency)
	if m.tel.TraceEnabled() {
		if !tlbHit {
			m.tel.Emit(telemetry.Event{Kind: telemetry.EvTLBMiss, Arg1: walk})
		}
		m.tel.Emit(telemetry.Event{Kind: telemetry.EvDemandAccess, Arg1: uint64(level), Arg2: latency})
	}
	reqs := m.Pref.OnLoad(prefetcher.Access{
		IP: ip, PA: pa, PID: pid, TLBHit: tlbHit, Level: level,
	})
	for _, r := range reqs {
		m.Mem.Prefetch(r.Target)
	}
	m.advance(latency)
	return latency
}

// timedLoad is load plus measurement overhead and jitter — what an attacker
// sees from an rdtscp-fenced load.
func (m *Machine) timedLoad(ip uint64, v mem.VAddr, pid int, as *mem.AddressSpace) uint64 {
	lat := m.load(ip, v, pid, as)
	meas := lat + m.Cfg.Measure.Overhead
	if span := m.Cfg.Measure.JitterSpan; span > 0 {
		meas += uint64(m.jitter.Int63n(int64(span)))
	}
	m.advance(m.Cfg.Measure.Overhead)
	return meas
}

// flush performs clflush of the line containing v.
func (m *Machine) flush(v mem.VAddr, as *mem.AddressSpace) {
	if pa, ok := as.Translate(v); ok {
		m.Mem.Flush(pa)
	}
	m.advance(40) // clflush is slow
}

// domainSwitch applies the cost and microarchitectural pollution of moving
// between execution contexts.
func (m *Machine) domainSwitch(sameProcess bool) {
	m.domainSwitches++
	if m.tel.TraceEnabled() {
		cross := uint64(1)
		if sameProcess {
			cross = 0
		}
		m.tel.Emit(telemetry.Event{Kind: telemetry.EvDomainSwitch, Arg1: cross})
	}
	n := m.Cfg.Noise
	if sameProcess {
		m.advance(n.ThreadSwitchCycles)
		m.kernelNoise(n.ThreadKernelLines, n.ThreadKernelIPLoads)
	} else {
		// TLB entries are PCID-tagged and survive the switch; processes
		// only contend for TLB capacity.
		m.advance(n.ProcessSwitchCycles)
		m.kernelNoise(n.KernelLines, n.KernelIPLoads)
	}
	if m.Cfg.FlushPrefetcherOnSwitch {
		m.Pref.IPStride.Flush()
		m.advance(uint64(m.Cfg.IPStride.Entries)) // one cycle per cleared entry (§8.3)
	}
	if m.auditEvery > 0 {
		if m.sinceAudit++; m.sinceAudit >= m.auditEvery {
			m.sinceAudit = 0
			m.auditCadence()
		}
	}
}

// auditCadence runs a full audit from the domain-switch hook. The check is
// read-only (no clock advance, no RNG draws), so enabling the cadence never
// changes a clean run's results or state hashes. A failing audit cannot
// panic here — domainSwitch executes on the scheduler's run-loop goroutine —
// so the fault is parked in pendingFault for the next Env operation (or the
// end-of-run drain) to throw on a recoverable boundary.
func (m *Machine) auditCadence() {
	if err := m.Audit(); err != nil && m.pendingFault == nil {
		if f, ok := err.(*SimFault); ok {
			m.pendingFault = f
		}
	}
}

// InjectKernelNoise exposes the context-switch noise model for fault
// injection and custom scenarios: `lines` kernel cache lines are touched, of
// which the first `ipLoads` also pass through the prefetchers.
func (m *Machine) InjectKernelNoise(lines, ipLoads int) { m.kernelNoise(lines, ipLoads) }

// InjectStall advances the clock by the given number of cycles — an
// injected pipeline stall (IPI service, interrupt, SMM excursion).
func (m *Machine) InjectStall(cycles uint64) { m.advance(cycles) }

// kernelNoise models the scheduler's own memory activity: `lines` cache
// lines touched in kernel data (evicting attacker lines) of which
// `ipLoads` also train/disturb the prefetcher under kernel IPs.
func (m *Machine) kernelNoise(lines, ipLoads int) {
	if lines <= 0 {
		return
	}
	base := m.noiseRegion.Base
	span := int64(m.noiseRegion.Length)
	for i := 0; i < lines; i++ {
		off := m.noise.Int63n(span/mem.LineSize) * mem.LineSize
		v := base + mem.VAddr(off)
		pa, _ := m.Kernel.AS.Translate(v)
		level, _ := m.Mem.Load(pa)
		if i < ipLoads {
			// Kernel scheduler loads pass through the prefetcher with
			// miscellaneous kernel IPs, occasionally evicting entries.
			ip := 0xffffffff81000000 + uint64(m.noise.Int63n(256))
			reqs := m.Pref.OnLoad(prefetcher.Access{
				IP: ip, PA: pa, PID: KernelPID, TLBHit: true, Level: level,
			})
			for _, r := range reqs {
				m.Mem.Prefetch(r.Target)
			}
		}
	}
	m.advance(uint64(lines) * 8)
}

// tick is called after every memory operation of a scheduled task; under
// SMT it hands the core to the sibling thread every OpsPerSlice operations
// (no context-switch cost or noise — the threads co-reside).
func (m *Machine) tick(e *Env) {
	if !m.Cfg.SMT.Enabled || e.task == nil || m.sched.current != e.task {
		return
	}
	m.smtOps++
	slice := m.Cfg.SMT.OpsPerSlice
	if slice <= 0 {
		slice = 1
	}
	if m.smtOps >= slice {
		m.smtOps = 0
		m.sched.smtSwitch = true
		m.sched.yield(e.task)
	}
}

// Direct returns an Env for synchronous, schedulerless use (micro-
// benchmarks and tests). Yield on a direct Env advances time without
// switching.
func (m *Machine) Direct(p *Process) *Env {
	return &Env{m: m, proc: p, domain: DomainUser}
}

// Rand exposes the machine's deterministic auxiliary RNG (for shuffled
// reloads à la Fisher–Yates in the artifact).
func (m *Machine) Rand() *rand.Rand { return m.noise }
