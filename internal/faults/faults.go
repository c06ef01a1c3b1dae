// Package faults is a deterministic fault-injection engine for the
// AfterImage simulator. It perturbs the microarchitectural state the attack
// depends on — the IP-stride history table, the dTLB, the cache hierarchy,
// and the victim's scheduling — on a seeded, reproducible schedule, so
// robustness experiments (how does the leak degrade under preemption storms
// or prefetcher-table churn?) are exactly repeatable: the same seed and
// intensity always produce the same event sequence.
//
// The engine hooks the machine through sim.Perturber: after every clock
// advance it fires all events whose scheduled cycle has passed. Event gaps
// are drawn from an exponential distribution (a Poisson process in simulated
// time) whose rate scales linearly with Config.Intensity, and every draw
// comes from one private seeded RNG, so the schedule is a pure function of
// the Config.
package faults

import (
	"fmt"
	"math/rand"

	"afterimage/internal/sim"
	"afterimage/internal/telemetry"
)

// Kind is one class of injected perturbation.
type Kind int

// The perturbation classes, ordered roughly by blast radius.
const (
	// EvictEntry invalidates one random IP-stride history-table slot — the
	// effect of a contending context allocating over the attacker's entry.
	EvictEntry Kind = iota
	// FlushTable clears the whole IP-stride history table, as the paper's
	// clear-ip-prefetcher instruction (§8.3) or a deep sleep state would.
	FlushTable
	// TLBShootdown flushes the dTLB and stalls for the IPI service cost,
	// re-triggering the §4.3 first-touch rule on every page.
	TLBShootdown
	// PreemptionStorm models an involuntary context switch: a scheduling
	// stall plus the kernel's own cache and prefetcher pollution (§5.1).
	PreemptionStorm
	// CacheThrash touches a burst of kernel cache lines, evicting attacker
	// probe lines from the LLC without disturbing the prefetcher table.
	CacheThrash

	// The corruption classes below model state-machine bugs rather than
	// contention: each silently breaks a structural invariant that the
	// machine's auditor (Machine.Audit / the audit cadence) must catch and
	// convert into a typed corruption fault. They are deliberately NOT part
	// of AllKinds — adding kinds there would shift every existing seeded
	// schedule — and are selected explicitly via CorruptionKinds.

	// CorruptStride bit-flips an IP-stride entry's stride field past the
	// 13-bit |stride| < 2 KiB bound.
	CorruptStride
	// CorruptConfidence writes a confidence value the 2-bit counter cannot
	// hold.
	CorruptConfidence
	// CorruptPLRU forces the history table's Bit-PLRU into the forbidden
	// all-ones state.
	CorruptPLRU
	// CorruptInclusivity drops an L1-resident line from the LLC only,
	// breaking L1 ⊆ LLC inclusion.
	CorruptInclusivity
	// CorruptTLB installs a dTLB translation with no page-table backing —
	// a desynchronised (stale) entry.
	CorruptTLB
	// CorruptCrossFrame records an issued prefetch whose target crosses its
	// trigger's physical page frame, violating §4.3 containment.
	CorruptCrossFrame

	kindCount = int(CorruptCrossFrame) + 1
)

// String names the kind (also the flag/CLI spelling, lower-kebab).
func (k Kind) String() string {
	switch k {
	case EvictEntry:
		return "evict-entry"
	case FlushTable:
		return "flush-table"
	case TLBShootdown:
		return "tlb-shootdown"
	case PreemptionStorm:
		return "preemption-storm"
	case CacheThrash:
		return "cache-thrash"
	case CorruptStride:
		return "corrupt-stride"
	case CorruptConfidence:
		return "corrupt-confidence"
	case CorruptPLRU:
		return "corrupt-plru"
	case CorruptInclusivity:
		return "corrupt-inclusivity"
	case CorruptTLB:
		return "corrupt-tlb"
	case CorruptCrossFrame:
		return "corrupt-cross-frame"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds returns every contention-class perturbation, in Kind order. It
// deliberately excludes the corruption classes: the default kind pool feeds
// kinds[rng.Intn(len(kinds))], so growing it would silently reshuffle every
// existing seeded schedule. Corruption faults are opt-in via CorruptionKinds.
func AllKinds() []Kind {
	return []Kind{EvictEntry, FlushTable, TLBShootdown, PreemptionStorm, CacheThrash}
}

// CorruptionKinds returns the state-corruption classes, in Kind order.
func CorruptionKinds() []Kind {
	return []Kind{CorruptStride, CorruptConfidence, CorruptPLRU, CorruptInclusivity, CorruptTLB, CorruptCrossFrame}
}

// ParseKind inverts Kind.String for every class, contention and corruption.
func ParseKind(s string) (Kind, error) {
	for _, k := range append(AllKinds(), CorruptionKinds()...) {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown kind %q", s)
}

// Config describes a fault schedule. The zero Intensity is an inert engine.
type Config struct {
	// Seed fixes the schedule; equal configs produce identical schedules.
	Seed int64
	// Intensity linearly scales the event rate: at 1.0 the engine fires
	// EventsPerMCycle events per million cycles; 0 disables injection.
	Intensity float64
	// EventsPerMCycle is the base rate at Intensity 1.0. 0 means the
	// DefaultEventsPerMCycle.
	EventsPerMCycle float64
	// Kinds restricts which perturbations may fire; nil or empty means all.
	Kinds []Kind
}

// DefaultEventsPerMCycle is the base event rate at Intensity 1.0 — chosen so
// intensity 1.0 lands several perturbations inside a single attack round
// (~100k–1M cycles).
const DefaultEventsPerMCycle = 25.0

// Event is one scheduled perturbation. Arg is a raw random parameter whose
// meaning depends on the kind (slot selector for EvictEntry, burst sizing
// for PreemptionStorm and CacheThrash); it is reduced at application time so
// the schedule itself is machine-independent.
type Event struct {
	Cycle uint64
	Kind  Kind
	Arg   int
}

// Stats counts applied perturbations.
type Stats struct {
	Total  uint64
	ByKind [kindCount]uint64
}

// Count returns how many events of kind k have been applied.
func (s Stats) Count(k Kind) uint64 {
	if int(k) < 0 || int(k) >= kindCount {
		return 0
	}
	return s.ByKind[k]
}

// Engine generates and applies a deterministic fault schedule. It implements
// sim.Perturber; install it with Machine.SetPerturber. Events are generated
// lazily — one draw per fired event — so arbitrarily long runs need no
// precomputed schedule.
type Engine struct {
	cfg     Config
	kinds   []Kind
	rng     *rand.Rand
	rate    float64 // events per cycle; 0 = disabled
	pending Event
	stats   Stats
}

// New builds an engine from the config. A non-positive intensity yields an
// engine whose Perturb is a no-op.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:   cfg,
		kinds: cfg.Kinds,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
	}
	if len(e.kinds) == 0 {
		e.kinds = AllKinds()
	}
	base := cfg.EventsPerMCycle
	if base == 0 {
		base = DefaultEventsPerMCycle
	}
	if cfg.Intensity > 0 && base > 0 {
		e.rate = cfg.Intensity * base / 1e6
		e.pending = e.step(0)
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a copy of the applied-event counters.
func (e *Engine) Stats() Stats { return e.stats }

// RegisterMetrics exposes the applied-event counters in reg: faults.injected
// plus faults.<kind> per perturbation class. Samplers read the live counters,
// so snapshots always match Stats() exactly.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterFunc("faults.injected", func() uint64 { return e.stats.Total })
	for _, k := range append(AllKinds(), CorruptionKinds()...) {
		k := k
		reg.RegisterFunc("faults."+k.String(), func() uint64 { return e.stats.ByKind[k] })
	}
}

// Enabled reports whether the engine will ever fire.
func (e *Engine) Enabled() bool { return e.rate > 0 }

// step draws the next event strictly after the given cycle.
func (e *Engine) step(after uint64) Event {
	gap := uint64(e.rng.ExpFloat64()/e.rate) + 1
	return Event{
		Cycle: after + gap,
		Kind:  e.kinds[e.rng.Intn(len(e.kinds))],
		Arg:   e.rng.Intn(1 << 16),
	}
}

// Preview generates the first n events of the schedule cfg describes,
// without a machine — the schedule an Engine with the same config will
// apply. Useful for determinism tests and experiment logging.
func Preview(cfg Config, n int) []Event {
	e := New(cfg)
	if !e.Enabled() || n <= 0 {
		return nil
	}
	out := make([]Event, 0, n)
	ev := e.pending
	for len(out) < n {
		out = append(out, ev)
		ev = e.step(ev.Cycle)
	}
	return out
}

// Perturb fires every pending event whose cycle has passed. It runs on the
// goroutine holding the simulated core, inside the machine's perturbation
// guard, so the clock advances its own applications cause do not re-enter.
//
// The next event is scheduled relative to the clock after the application:
// perturbations cost simulated time themselves (stalls, kernel noise), and
// gaps drawn from the pre-application clock would compound — at high
// intensity each event would make more events due than it consumed and the
// machine would never get back to the workload. Anchoring the gap after the
// application bounds the injection duty cycle below 1 at any intensity.
func (e *Engine) Perturb(m *sim.Machine, now uint64) {
	for e.rate > 0 && e.pending.Cycle <= now {
		ev := e.pending
		e.apply(m, ev)
		after := ev.Cycle
		if c := m.Now(); c > after {
			after = c
		}
		e.pending = e.step(after)
	}
}

// apply mutates the machine according to one event, using only public
// machine API so the engine stays outside the simulator's trust boundary.
func (e *Engine) apply(m *sim.Machine, ev Event) {
	e.stats.Total++
	e.stats.ByKind[ev.Kind]++
	if tel := m.Telemetry(); tel.TraceEnabled() {
		tel.Emit(telemetry.Event{
			Kind: telemetry.EvFaultInject, Cycle: ev.Cycle,
			Arg1: uint64(ev.Kind), Label: ev.Kind.String(),
		})
	}
	switch ev.Kind {
	case EvictEntry:
		slots := m.Cfg.IPStride.Entries
		m.Pref.IPStride.EvictSlot(ev.Arg % slots)
	case FlushTable:
		m.Pref.IPStride.Flush()
		m.InjectStall(uint64(m.Cfg.IPStride.Entries))
	case TLBShootdown:
		m.TLB.FlushAll()
		m.InjectStall(600) // remote IPI service cost
	case PreemptionStorm:
		// 1–3 back-to-back involuntary switches.
		n := 1 + ev.Arg%3
		for i := 0; i < n; i++ {
			m.InjectStall(m.Cfg.Noise.ProcessSwitchCycles)
			m.InjectKernelNoise(m.Cfg.Noise.KernelLines, m.Cfg.Noise.KernelIPLoads)
		}
	case CacheThrash:
		// A burst of kernel-line touches; no prefetcher-visible IP loads.
		m.InjectKernelNoise(128+ev.Arg%256, 0)
	case CorruptStride:
		stride := m.Cfg.IPStride.MaxStrideBytes + 64 + int64(ev.Arg%1024)
		m.Pref.IPStride.CorruptStride(ev.Arg, stride)
	case CorruptConfidence:
		m.Pref.IPStride.CorruptConfidence(ev.Arg, m.Cfg.IPStride.MaxConfidence+1+ev.Arg%4)
	case CorruptPLRU:
		m.Pref.IPStride.CorruptPLRU()
	case CorruptInclusivity:
		m.Mem.CorruptInclusivity()
	case CorruptTLB:
		// A VPN in the guard region below any mapping base: present in the
		// TLB, never in a page table.
		m.TLB.CorruptInsert(m.Kernel.AS.ID, 3+uint64(ev.Arg%1021))
	case CorruptCrossFrame:
		m.Pref.IPStride.CorruptCrossFrame()
	}
}
