package sim

import (
	"fmt"
	"math/rand"

	"afterimage/internal/cache"
	"afterimage/internal/mem"
)

// Fork produces an independent machine whose simulated state is
// bit-identical to the receiver's: same clock, same warmed caches, TLB and
// prefetcher tables, same RNG stream positions, same address-space layouts.
// Campaign drivers warm one template machine per configuration and fork
// every sweep point's divergent suffix from it instead of re-running the
// shared warm prefix — forking is a few slice copies, orders of magnitude
// below machine construction plus warmup.
//
// Copied (deep): cache hierarchy (tags, replacement state, counters), TLB
// (entries re-tagged to the fork's fresh ASIDs), prefetcher suite, physical
// frame allocator, every address space (page tables, mappings, ASLR stream
// position), jitter/noise RNGs at their exact draw counts, clock and all
// scalar counters.
//
// Rebuilt fresh (per-machine identity, never shared): the scheduler, the
// telemetry hub with its registry samplers and latency histogram (samplers
// are closures over live counters — sharing them would let one machine's
// metrics read another's state), and the way predictors and scratch
// buffers, which cache only locations and capacity.
//
// Not carried over: the perturber, cancellation probe, pending fault and
// last-audit diagnostics — per-run harness attachments, installed by the
// driver on whichever machine it runs.
//
// Fork allocates a new machine; ResetFrom copies into an existing one and
// shares Fork's body, as Boot shares NewMachineChecked's. Fork refuses
// while the scheduler is mid-run: parked task goroutines hold uncopyable
// state.
func (m *Machine) Fork() (*Machine, error) {
	if m.sched.running {
		return nil, &SimFault{
			Kind: FaultAPIMisuse, Domain: DomainUser, Cycle: m.clock,
			Msg: "Fork during an active scheduler run",
		}
	}
	f := &Machine{}
	if err := f.copyFrom(m, m.Mem.Fork()); err != nil {
		return nil, err
	}
	return f, nil
}

// ResetFrom overwrites the receiver with a copy of t: afterwards it is
// state-identical to t.Fork(), and the receiver's own processes, mappings,
// Envs and harness attachments are gone. Whatever the receiver held before
// (another seed's machine, another geometry, a copy of another template),
// its cache arrays are reused in place. When the receiver tracks t — it was
// last forked or reset from t, and t has neither run nor been rewritten
// since — each level copies back just the sets the receiver dirtied;
// otherwise every level copies every set. Equal cache-level origin
// pointers do not prove t unchanged once machines are recycled, so only
// that machine-level check selects the dirty-set copy. Everything else is
// rebuilt exactly as Fork builds it. Sweeps use it to recycle one point
// machine per worker, and afterimage.Lab.Fork to copy into an idle
// machine, instead of allocating one per copy.
//
// Machines forked or reset from the receiver see it as changed. It refuses
// while either machine's scheduler is mid-run, on t == m and on a nil t;
// Boot returns a machine to the constructor state.
func (m *Machine) ResetFrom(t *Machine) error {
	if t == nil || m.sched.running || t.sched.running || m == t {
		return &SimFault{
			Kind: FaultAPIMisuse, Domain: DomainUser, Cycle: m.clock,
			Msg: "ResetFrom without a source, during an active scheduler run or onto itself",
		}
	}
	m.Mem.ResetFrom(t.Mem, m.tracks(t))
	return m.copyFrom(t, m.Mem)
}

// tracks reports whether t is the machine m was last forked or reset from
// and t has not changed since: its clock has not moved and it has not been
// booted or reset itself. Every operation that writes t's caches advances
// t's clock, and every boot or copy bumps t's copies, so while this holds,
// the cache sets m did not dirty still equal t's.
func (m *Machine) tracks(t *Machine) bool {
	return t != nil && m.origin == t && m.originClock == t.clock && m.originCopies == t.copies
}

// copyFrom is the body of Fork and ResetFrom: it overwrites m with a copy of
// t, taking h as its cache hierarchy, which must already hold a copy of
// t.Mem.
func (m *Machine) copyFrom(t *Machine, h *cache.Hierarchy) error {
	*m = Machine{
		Cfg:  t.Cfg,
		Mem:  h,
		Pref: t.Pref.Fork(),
		Phys: t.Phys.Clone(),

		clock:    t.clock,
		nextPID:  t.nextPID,
		syscalls: make(map[int]SyscallHandler, len(t.syscalls)),

		smtOps:      t.smtOps,
		budgetLimit: t.budgetLimit,

		auditEvery:     t.auditEvery,
		sinceAudit:     t.sinceAudit,
		auditRuns:      t.auditRuns,
		auditViolation: t.auditViolation,

		domainSwitches: t.domainSwitches,
		syscallCount:   t.syscallCount,

		origin:       t,
		originClock:  t.clock,
		originCopies: t.copies,
		copies:       m.copies + 1,
	}
	for num, h := range t.syscalls {
		m.syscalls[num] = h
	}
	m.jitterSrc = t.jitterSrc.Clone()
	m.jitter = rand.New(m.jitterSrc)
	m.noiseSrc = t.noiseSrc.Clone()
	m.noise = rand.New(m.noiseSrc)

	// Address spaces clone in creation order (kernel first, then processes),
	// so asidNormalize assigns the same stable numbers on both machines and
	// their state hashes agree. The clones draw fresh ASIDs from the global
	// allocator; remap re-tags the copied TLB entries so the copy's warmed
	// translations stay visible to its own processes. ASIDs outside the
	// table — e.g. a CorruptInsert entry referencing a dead space — pass
	// through raw, keeping audit-visible corruption audit-visible.
	remap := make(map[uint64]uint64, len(t.procs)+1)
	m.Kernel = &Process{PID: KernelPID, Name: t.Kernel.Name, AS: t.Kernel.AS.Clone(m.Phys)}
	remap[t.Kernel.AS.ID] = m.Kernel.AS.ID
	m.procs = make([]*Process, len(t.procs))
	for i, p := range t.procs {
		m.procs[i] = &Process{PID: p.PID, Name: p.Name, AS: p.AS.Clone(m.Phys)}
		remap[p.AS.ID] = m.procs[i].AS.ID
	}
	m.TLB = t.TLB.Fork(func(asid uint64) uint64 {
		if n, ok := remap[asid]; ok {
			return n
		}
		return asid
	})

	// Re-point the kernel noise region at the copy's own clone of the same
	// mapping (matched by position — Mappings preserves creation order).
	for i, mp := range t.Kernel.AS.Mappings() {
		if mp == t.noiseRegion {
			m.noiseRegion = m.Kernel.AS.Mappings()[i]
			break
		}
	}
	if m.noiseRegion == nil {
		return fmt.Errorf("sim: fork: kernel noise region not found among kernel mappings")
	}

	m.sched = newScheduler(m)

	m.newTelemetry()
	return nil
}

// MustFork is Fork that panics on failure — for tests and drivers where a
// mid-run fork is a programming error.
func (m *Machine) MustFork() *Machine {
	f, err := m.Fork()
	if err != nil {
		panic(err)
	}
	return f
}

// Processes returns the machine's user processes in creation order — the
// handle a driver needs to resume work on a forked machine, whose Process
// structs are its own copies of the parent's.
func (m *Machine) Processes() []*Process {
	return append([]*Process(nil), m.procs...)
}

// LoadOp is one element of a batched trace chunk: a load instruction at IP
// touching virtual address VA.
type LoadOp struct {
	IP uint64
	VA mem.VAddr
}

// loadBatch replays a trace chunk through the per-load hot path with the
// dispatch hoisted out of the loop: the PID and translation context are
// fixed per Env (they depend only on the domain and owning process), so
// they are resolved once instead of per load. Each element then performs
// exactly the Env.Load sequence — budget check, lastIP, load, tick — so a
// batch is observationally identical to the per-load loop, element for
// element, fault for fault.
func (m *Machine) loadBatch(e *Env, ops []LoadOp, lats []uint64) []uint64 {
	pid := e.PID()
	as := e.addressSpace()
	for i := range ops {
		m.checkBudget(e)
		e.lastIP = ops[i].IP
		lat := m.load(ops[i].IP, ops[i].VA, pid, as)
		m.tick(e)
		lats = append(lats, lat)
	}
	return lats
}
