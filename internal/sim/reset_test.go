package sim

import (
	"math/rand"
	"testing"
)

// Reset suite: ResetFrom must leave the receiver state-identical to a fork
// of its source, on the dirty-set path and on both whole-copy fallbacks,
// ResetFrom(nil) must leave it state-identical to a new machine, and Audit
// must scope itself so that its dirty-set audits report exactly what a full
// audit reports.

// resetProgram runs a fixed, seed-derived program on a machine rebound to
// the fork-property rig: loads, batches, flushes, syscalls and enclave calls
// across the rig buffer, dirtying sets at every cache level.
func resetProgram(t *testing.T, rig *forkRig, m *Machine, seed int64) {
	t.Helper()
	r, err := rig.rebind(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range genForkProgram(rand.New(rand.NewSource(seed)), 80) {
		r.exec(op)
	}
}

// requireSameAsFork checks that m, just reset from src, hashes like a fresh
// fork of src, and still does after both run the same program.
func requireSameAsFork(t *testing.T, rig *forkRig, m, src *Machine) {
	t.Helper()
	f := src.MustFork()
	if got, want := m.StateHash(), f.StateHash(); got != want {
		t.Fatalf("reset machine hash %#016x, fork %#016x", got, want)
	}
	resetProgram(t, rig, m, 77)
	resetProgram(t, rig, f, 77)
	if got, want := m.StateHash(), f.StateHash(); got != want {
		t.Fatalf("after one program: reset machine hash %#016x, fork %#016x", got, want)
	}
}

// TestResetFromDirtySetsMatchesFork: a machine forked from the template,
// run, then reset from it copies back only what it dirtied — in place —
// and matches a fresh fork; so does a second round on the same machine.
func TestResetFromDirtySetsMatchesFork(t *testing.T) {
	rig := newForkRig(4)
	m := rig.m.MustFork()
	for round := int64(0); round < 2; round++ {
		resetProgram(t, rig, m, 10+round)
		h := m.Mem
		if err := m.ResetFrom(rig.m); err != nil {
			t.Fatal(err)
		}
		if m.Mem != h {
			t.Fatal("reset from the origin did not reuse the hierarchy in place")
		}
		requireSameAsFork(t, rig, m, rig.m)
		if err := m.ResetFrom(rig.m); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResetFromFallsBackToWholeCopy: the dirty-set path is taken only while
// the source is the receiver's origin and has not changed since. A
// different source, a source whose clock moved and a source that was reset
// itself all get a whole copy, and each result matches a fork.
func TestResetFromFallsBackToWholeCopy(t *testing.T) {
	t.Run("other-source", func(t *testing.T) {
		rig := newForkRig(5)
		other := rig.m.MustFork()
		resetProgram(t, rig, other, 21)
		m := rig.m.MustFork()
		resetProgram(t, rig, m, 22)
		h := m.Mem
		if err := m.ResetFrom(other); err != nil {
			t.Fatal(err)
		}
		if m.Mem == h {
			t.Fatal("reset from a non-origin reused the hierarchy")
		}
		requireSameAsFork(t, rig, m, other)
	})
	t.Run("source-clock-moved", func(t *testing.T) {
		rig := newForkRig(6)
		src := rig.m.MustFork()
		m := src.MustFork()
		resetProgram(t, rig, m, 31)
		resetProgram(t, rig, src, 32)
		h := m.Mem
		if err := m.ResetFrom(src); err != nil {
			t.Fatal(err)
		}
		if m.Mem == h {
			t.Fatal("reset from a source that ran reused the hierarchy")
		}
		requireSameAsFork(t, rig, m, src)
	})
	t.Run("source-reset", func(t *testing.T) {
		// A reset can return a source's clock to the value the receiver
		// recorded, so the guard also counts the source's resets.
		rig := newForkRig(7)
		src := rig.m.MustFork()
		m := src.MustFork()
		if !m.tracks(src) {
			t.Fatal("fresh fork does not track its source")
		}
		resetProgram(t, rig, src, 41)
		if err := src.ResetFrom(rig.m); err != nil {
			t.Fatal(err)
		}
		if src.Now() != m.originClock {
			t.Fatalf("test premise: source clock %d, recorded %d", src.Now(), m.originClock)
		}
		if m.tracks(src) {
			t.Fatal("a source that was reset still reads as unchanged")
		}
	})
}

// TestResetFromRefused: ResetFrom refuses while either machine's scheduler
// is mid-run, and onto the receiver itself.
func TestResetFromRefused(t *testing.T) {
	m := NewMachine(Quiet(CoffeeLake(3)))
	other := m.MustFork()
	var intoRunning, fromRunning error
	m.Spawn(m.NewProcess("p"), "t", func(e *Env) {
		intoRunning = m.ResetFrom(other)
		fromRunning = other.ResetFrom(m)
	})
	m.Run()
	if intoRunning == nil {
		t.Error("ResetFrom into a running machine did not refuse")
	}
	if fromRunning == nil {
		t.Error("ResetFrom from a running machine did not refuse")
	}
	for _, err := range []error{intoRunning, fromRunning, m.ResetFrom(m)} {
		if f, ok := AsFault(err); !ok || f.Kind != FaultAPIMisuse {
			t.Errorf("refusal %v, want an API-misuse SimFault", err)
		}
	}
}

// TestReboot: ResetFrom(nil) returns a machine to the state
// NewMachine(m.Cfg) builds, in place, from a booted history and from a
// forked one. The rebooted machine hashes like a new machine and like its
// own fork, whose hash folds every cache set, audits clean, and still
// matches the new machine after both run the same program. A fork taken
// before the reboot no longer tracks the machine. ResetFrom(nil) refuses
// mid-run.
func TestReboot(t *testing.T) {
	const seed = 8
	booted := newForkRig(seed)
	resetProgram(t, booted, booted.m, 51)
	forked := booted.m.MustFork()
	resetProgram(t, booted, forked, 52)
	for name, m := range map[string]*Machine{"booted-history": booted.m, "forked-history": forked} {
		t.Run(name, func(t *testing.T) {
			child := m.MustFork()
			h, tl := m.Mem, m.TLB
			if err := m.ResetFrom(nil); err != nil {
				t.Fatal(err)
			}
			if m.Mem != h || m.TLB != tl {
				t.Fatal("reboot did not reuse the hierarchy and the TLB in place")
			}
			if child.tracks(m) {
				t.Fatal("a fork taken before the reboot still tracks the machine")
			}
			fresh := NewMachine(m.Cfg)
			requireFresh := func(what string) {
				t.Helper()
				want := fresh.StateHash()
				if got := m.StateHash(); got != want {
					t.Fatalf("%s: hash %#016x, new machine %#016x", what, got, want)
				}
				if got := m.MustFork().StateHash(); got != want {
					t.Fatalf("%s: fork's hash %#016x, new machine %#016x", what, got, want)
				}
				if err := m.Audit(); err != nil {
					t.Fatalf("%s: audit %v", what, err)
				}
			}
			requireFresh("rebooted")
			rm, rf := bootForkRig(m), bootForkRig(fresh)
			for _, op := range genForkProgram(rand.New(rand.NewSource(77)), 80) {
				rm.exec(op)
				rf.exec(op)
			}
			requireFresh("after one program")
		})
	}
	t.Run("refused-mid-run", func(t *testing.T) {
		m := NewMachine(Quiet(CoffeeLake(3)))
		var err error
		m.Spawn(m.NewProcess("p"), "t", func(e *Env) { err = m.ResetFrom(nil) })
		m.Run()
		if f, ok := AsFault(err); !ok || f.Kind != FaultAPIMisuse {
			t.Fatalf("ResetFrom(nil) inside a scheduler run: %v, want an API-misuse SimFault", err)
		}
	})
}

// TestAuditFromMatchesAudit: Audit works out its own scope, and the audit
// of a machine copied from a template reports exactly what a full audit
// reports, for every corruption class:
//   - a machine reset from a template that audited clean checks its cache
//     levels over their dirty sets and prints the full audit's text;
//   - once the template runs, the copy's Audit is whole;
//   - a template that ran, or was reset, after its clean audit gives the
//     copies made afterwards a whole audit;
//   - a booted machine checks its cache levels over their dirty sets and
//     prints what the whole audit of its fork prints, and a copy of a
//     template whose last audit failed reports the template's corruption.
func TestAuditFromMatchesAudit(t *testing.T) {
	for _, tc := range corruptionCases {
		t.Run(tc.name, func(t *testing.T) {
			tmpl, env, buf := warmMachine(t)
			if err := tmpl.Audit(); err != nil {
				t.Fatalf("clean template fails Audit: %v", err)
			}
			m := tmpl.MustFork()
			if err := m.ResetFrom(tmpl); err != nil {
				t.Fatal(err)
			}
			if m.auditScope() != tmpl {
				t.Fatal("a copy of a template that audited clean audits whole")
			}
			if err := m.Audit(); err != nil {
				t.Fatalf("clean reset machine fails Audit: %v", err)
			}
			tc.corrupt(t, m)
			scoped, full := m.Audit(), m.audit(nil)
			if scoped == nil || full == nil || scoped.Error() != full.Error() {
				t.Fatalf("scoped Audit %v\nfull audit %v", scoped, full)
			}

			// Running the template ends the scope: Audit is whole.
			env.Load(0x40_0100, buf.Base)
			if m.auditScope() != nil {
				t.Fatal("a copy still scopes its audit to a template that ran")
			}
			if got := m.Audit(); got == nil || got.Error() != full.Error() {
				t.Fatalf("Audit past the template's run %v, want %v", got, full)
			}
			if tmpl.MustFork().auditScope() != nil {
				t.Fatal("a template that ran after its clean audit scopes its copies' audits")
			}
			src := tmpl.MustFork()
			if err := src.Audit(); err != nil {
				t.Fatal(err)
			}
			if err := src.ResetFrom(src.MustFork()); err != nil {
				t.Fatal(err)
			}
			if src.MustFork().auditScope() != nil {
				t.Fatal("a template reset after its clean audit scopes its copies' audits")
			}

			tc.corrupt(t, tmpl)
			booted := tmpl.Audit()
			c := tmpl.MustFork()
			if c.auditScope() != nil {
				t.Fatal("a copy of a template whose audit failed scopes its audit to it")
			}
			if whole := c.Audit(); booted == nil || whole == nil || booted.Error() != whole.Error() {
				t.Fatalf("booted machine's Audit %v\nwhole audit of its fork %v", booted, whole)
			}
		})
	}
}
