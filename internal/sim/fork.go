package sim

import (
	"fmt"
	"math/rand"

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
// Fork is the only way machine state is copied. It refuses while the
// scheduler is mid-run: parked task goroutines hold uncopyable state.
func (m *Machine) Fork() (*Machine, error) {
	if m.sched.running {
		return nil, &SimFault{
			Kind: FaultAPIMisuse, Domain: DomainUser, Cycle: m.clock,
			Msg: "Fork during an active scheduler run",
		}
	}
	f := &Machine{
		Cfg:  m.Cfg,
		Mem:  m.Mem.Fork(),
		Pref: m.Pref.Fork(),
		Phys: m.Phys.Clone(),

		clock:    m.clock,
		nextPID:  m.nextPID,
		syscalls: make(map[int]SyscallHandler, len(m.syscalls)),

		smtOps:      m.smtOps,
		budgetLimit: m.budgetLimit,

		auditEvery:     m.auditEvery,
		sinceAudit:     m.sinceAudit,
		auditRuns:      m.auditRuns,
		auditViolation: m.auditViolation,

		domainSwitches: m.domainSwitches,
		syscallCount:   m.syscallCount,
	}
	for num, h := range m.syscalls {
		f.syscalls[num] = h
	}
	f.jitterSrc = m.jitterSrc.Clone()
	f.jitter = rand.New(f.jitterSrc)
	f.noiseSrc = m.noiseSrc.Clone()
	f.noise = rand.New(f.noiseSrc)

	// Address spaces clone in creation order (kernel first, then processes),
	// so asidNormalize assigns the same stable numbers on both machines and
	// their state hashes agree. The clones draw fresh ASIDs from the global
	// allocator; remap re-tags the copied TLB entries so the fork's warmed
	// translations stay visible to its own processes. ASIDs outside the
	// table — e.g. a CorruptInsert entry referencing a dead space — pass
	// through raw, keeping audit-visible corruption audit-visible.
	remap := make(map[uint64]uint64, len(m.procs)+1)
	f.Kernel = &Process{PID: KernelPID, Name: m.Kernel.Name, AS: m.Kernel.AS.Clone(f.Phys)}
	remap[m.Kernel.AS.ID] = f.Kernel.AS.ID
	f.procs = make([]*Process, len(m.procs))
	for i, p := range m.procs {
		f.procs[i] = &Process{PID: p.PID, Name: p.Name, AS: p.AS.Clone(f.Phys)}
		remap[p.AS.ID] = f.procs[i].AS.ID
	}
	f.TLB = m.TLB.Fork(func(asid uint64) uint64 {
		if n, ok := remap[asid]; ok {
			return n
		}
		return asid
	})

	// Re-point the kernel noise region at the fork's own copy of the same
	// mapping (matched by position — Mappings preserves creation order).
	for i, mp := range m.Kernel.AS.Mappings() {
		if mp == m.noiseRegion {
			f.noiseRegion = f.Kernel.AS.Mappings()[i]
			break
		}
	}
	if f.noiseRegion == nil {
		return nil, fmt.Errorf("sim: fork: kernel noise region not found among kernel mappings")
	}

	f.sched = newScheduler(f)

	f.newTelemetry()
	return f, nil
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
