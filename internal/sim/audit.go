package sim

import (
	"fmt"
	"strings"

	"afterimage/internal/mem"
)

// Violation is one broken structural rule, attributed to the component whose
// checker found it.
type Violation struct {
	// Component names the checker: "prefetcher.ipstride",
	// "cache.hierarchy", "tlb", "sched" or "mem.spaces".
	Component string
	// Detail describes the violated rule and the offending state.
	Detail string
}

// String renders the violation for fault messages and reports.
func (v Violation) String() string { return v.Component + ": " + v.Detail }

func violationf(component, format string, args ...interface{}) Violation {
	return Violation{Component: component, Detail: fmt.Sprintf(format, args...)}
}

// violations runs every structural checker and concatenates what they find,
// always in this order: prefetcher.ipstride, cache.hierarchy, tlb (entries,
// then coherence with the page tables), sched, mem.spaces. Each checker is
// read-only. With from set, the cache levels are checked over the sets
// dirtied since the machine was forked or reset from from (see
// cache.Hierarchy.AuditFrom); without it, a booted level is checked over
// its dirty sets and any other level whole (see cache.Hierarchy.Audit).
// Audit decides which. ASIDs print normalized, as the state hash folds
// them, so messages do not depend on how many address spaces the process
// created before.
func (m *Machine) violations(from *Machine) []Violation {
	vs := asViolations("prefetcher.ipstride", m.Pref.Audit())
	if from != nil {
		vs = append(vs, asViolations("cache.hierarchy", m.Mem.AuditFrom(from.Mem))...)
	} else {
		vs = append(vs, asViolations("cache.hierarchy", m.Mem.Audit())...)
	}
	normalize := m.asidNormalize()
	vs = append(vs, asViolations("tlb", m.TLB.Audit(normalize))...)
	vs = append(vs, m.auditTLBCoherence(normalize)...)
	vs = append(vs, m.auditScheduler()...)
	return append(vs, m.auditSpaces()...)
}

// auditSpaces checks machine↔address-space wiring: every space (kernel plus
// processes) carries a distinct ASID, and the kernel noise region is one of
// THIS machine's kernel mappings with a live translation. The pointer
// identity check is what catches a botched fork: a forked machine whose
// noiseRegion still aims at the parent's mapping would silently read the
// parent's layout.
func (m *Machine) auditSpaces() []Violation {
	var vs []Violation
	seen := map[uint64]string{m.Kernel.AS.ID: m.Kernel.Name}
	for _, p := range m.procs {
		if prev, dup := seen[p.AS.ID]; dup {
			vs = append(vs, violationf("mem.spaces", "address spaces %q and %q share ASID %d", prev, p.Name, p.AS.ID))
		}
		seen[p.AS.ID] = p.Name
	}
	owned := false
	for _, mp := range m.Kernel.AS.Mappings() {
		if mp == m.noiseRegion {
			owned = true
			break
		}
	}
	if !owned {
		vs = append(vs, violationf("mem.spaces", "kernel noise region %#x not among this machine's kernel mappings", uint64(m.noiseRegion.Base)))
	} else if _, ok := m.Kernel.AS.Translate(m.noiseRegion.Base); !ok {
		vs = append(vs, violationf("mem.spaces", "kernel noise region base %#x has no translation", uint64(m.noiseRegion.Base)))
	}
	return vs
}

func asViolations(component string, errs []error) []Violation {
	var vs []Violation
	for _, err := range errs {
		vs = append(vs, Violation{Component: component, Detail: err.Error()})
	}
	return vs
}

// auditTLBCoherence walks every valid TLB entry and checks it is backed by a
// page-table translation in the address space owning that ASID: a cached
// translation with no backing page is the desync a missed shootdown leaves.
// Messages print each ASID through normalize.
func (m *Machine) auditTLBCoherence(normalize func(uint64) uint64) []Violation {
	spaces := map[uint64]*mem.AddressSpace{m.Kernel.AS.ID: m.Kernel.AS}
	for _, p := range m.procs {
		spaces[p.AS.ID] = p.AS
	}
	var vs []Violation
	m.TLB.VisitEntries(func(asid, vpn uint64) {
		as, ok := spaces[asid]
		if !ok {
			vs = append(vs, violationf("tlb", "entry (asid %d, vpn %#x) references unknown address space", normalize(asid), vpn))
			return
		}
		if _, ok := as.Translate(mem.VAddr(vpn << mem.PageShift)); !ok {
			vs = append(vs, violationf("tlb", "entry (asid %d, vpn %#x) has no page-table backing in %q (stale translation)", normalize(asid), vpn, as.Name))
		}
	})
	return vs
}

// auditScheduler checks run-loop bookkeeping: while a run is active the
// current task must exist, be registered and not be done.
func (m *Machine) auditScheduler() []Violation {
	s := m.sched
	if !s.running {
		return nil
	}
	var vs []Violation
	if s.current == nil {
		return append(vs, violationf("sched", "running with no current task"))
	}
	if s.current.done {
		vs = append(vs, violationf("sched", "current task %q already done", s.current.name))
	}
	found := false
	for _, t := range s.tasks {
		if t == s.current {
			found = true
			break
		}
	}
	if !found {
		vs = append(vs, violationf("sched", "current task %q not registered", s.current.name))
	}
	return vs
}

// Audit runs every structural checker over the machine's state. It
// returns nil when the state is structurally sound, or a FaultCorruption
// *SimFault whose message lists every violation. The check is read-only:
// the clock does not advance and no RNG is drawn, so auditing never changes
// simulated outcomes.
//
// Audit works out for itself which cache sets it must check. It checks the
// cache levels over their dirty sets, which reports exactly what checking
// every set would, in two cases: the machine is booted, so its clean sets
// hold the constructor state, or it tracks its origin (see tracks), so its
// clean sets still equal the origin's, and the origin's last audit found
// nothing at the origin's current clock. Otherwise it checks every set.
// The audit stamp rests on the rule tracks rests on: every write to a
// machine's caches advances its clock, and every boot or copy rebuilds the
// machine, which clears the stamp. The other checkers, and the cache
// inclusivity walk, run whole either way.
func (m *Machine) Audit() error { return m.audit(m.auditScope()) }

// auditScope returns the origin whose clean cache sets m's audit may skip:
// m's origin when m tracks it and the origin's last audit found nothing at
// the origin's current clock, else nil.
func (m *Machine) auditScope() *Machine {
	o := m.origin
	if m.tracks(o) && o.auditClean && o.auditClock == o.clock {
		return o
	}
	return nil
}

// audit is Audit over the scope from (see violations), and stamps the
// machine with the result. audit(nil) on a copied machine is the whole
// audit the tests compare Audit against.
func (m *Machine) audit(from *Machine) error {
	m.auditRuns++
	vs := m.violations(from)
	m.auditClean, m.auditClock = len(vs) == 0, m.clock
	if len(vs) == 0 {
		m.lastViolations = nil
		return nil
	}
	m.auditViolation += uint64(len(vs))
	m.lastViolations = vs
	details := make([]string, len(vs))
	for i, v := range vs {
		details[i] = v.String()
	}
	return &SimFault{
		Kind:  FaultCorruption,
		Cycle: m.clock,
		Msg:   fmt.Sprintf("%d invariant violation(s): %s", len(vs), strings.Join(details, "; ")),
	}
}

// AuditViolations returns the violations found by the most recent failing
// Audit (nil after a clean one).
func (m *Machine) AuditViolations() []Violation {
	return append([]Violation(nil), m.lastViolations...)
}

// SetAuditEvery enables the audit cadence: a full invariant audit every n
// domain switches, with a failing audit surfacing as a FaultCorruption task
// fault. Zero disables the cadence (the disabled path costs one integer
// compare per switch).
func (m *Machine) SetAuditEvery(n int) {
	if n < 0 {
		n = 0
	}
	m.auditEvery = n
	m.sinceAudit = 0
}
