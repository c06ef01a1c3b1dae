package sim

import "testing"

// Forked-machine selfcheck suite: Machine.Fork must hand back a machine the
// full audit accepts (TLB coherence under remapped ASIDs,
// noise-region identity, distinct spaces) and on which every corruption
// class is still caught — with corruption on either side of the fork
// invisible to the other.

// TestForkedMachineAuditsClean: a fork of a warmed machine passes the full
// audit, and so does a fork of a fork.
func TestForkedMachineAuditsClean(t *testing.T) {
	m, _, _ := warmMachine(t)
	f := m.MustFork()
	if err := f.Audit(); err != nil {
		t.Fatalf("forked machine fails audit: %v", err)
	}
	if err := f.MustFork().Audit(); err != nil {
		t.Fatalf("fork of a fork fails audit: %v", err)
	}
	if err := m.Audit(); err != nil {
		t.Fatalf("parent fails audit after forking: %v", err)
	}
}

// TestAuditCatchesCorruptionClassesOnFork re-runs the whole corruption
// selfcheck suite against forked machines, and checks the parent stays
// audit-clean through every injected fault.
func TestAuditCatchesCorruptionClassesOnFork(t *testing.T) {
	for _, tc := range corruptionCases {
		t.Run(tc.name, func(t *testing.T) {
			m, _, _ := warmMachine(t)
			f := m.MustFork()
			auditMustCatch(t, f, tc)
			if err := m.Audit(); err != nil {
				t.Fatalf("corrupting the fork dirtied the parent: %v", err)
			}
		})
	}
}

// TestForkIsolatedFromParentCorruption: the mirror direction — corrupting
// the parent after forking leaves the fork audit-clean.
func TestForkIsolatedFromParentCorruption(t *testing.T) {
	m, _, _ := warmMachine(t)
	f := m.MustFork()
	m.Pref.IPStride.CorruptStride(0, m.Cfg.IPStride.MaxStrideBytes+512)
	m.TLB.CorruptInsert(m.Kernel.AS.ID, 0x3)
	if err := m.Audit(); err == nil {
		t.Fatal("parent corruption not caught")
	}
	if err := f.Audit(); err != nil {
		t.Fatalf("parent corruption leaked into the fork: %v", err)
	}
}

// TestForkPreservesCorruptTLBEntries: Fork's ASID remap rewrites only VALID
// entries through the parent→child table and passes unknown ASIDs raw, so
// an injected desync survives the fork and the fork's own coherence audit
// still catches it — forking never launders corruption.
func TestForkPreservesCorruptTLBEntries(t *testing.T) {
	m, _, _ := warmMachine(t)
	m.TLB.CorruptInsert(m.Kernel.AS.ID, 0x3)
	f := m.MustFork()
	if err := f.Audit(); err == nil {
		t.Fatal("fork laundered the corrupt TLB entry")
	}
}

// TestForkSeparatesTelemetry: spans and metrics recorded on a fork land on
// the fork's own hub, not the parent's.
func TestForkSeparatesTelemetry(t *testing.T) {
	m, _, _ := warmMachine(t)
	f := m.MustFork()
	if m.Telemetry() == f.Telemetry() {
		t.Fatal("fork shares the parent's telemetry hub")
	}
	fp := f.Processes()[0]
	fe := f.Direct(fp)
	fe.BeginPhase("fork-only")
	fe.Sleep(100)
	fe.EndPhase()
	for _, ph := range m.Telemetry().PhaseSummaries() {
		if ph.Name == "fork-only" {
			t.Fatal("fork phase recorded on the parent hub")
		}
	}
	found := false
	for _, ph := range f.Telemetry().PhaseSummaries() {
		if ph.Name == "fork-only" {
			found = true
		}
	}
	if !found {
		t.Fatal("fork phase missing from the fork hub")
	}
}
