package sim

import (
	"math/rand"
	"testing"
)

// Reset suite: ResetFrom must leave the receiver state-identical to a fork
// of its source, on the dirty-set path and on both whole-copy fallbacks,
// Reboot must leave it state-identical to a new machine, and AuditFrom and
// the dirty-set Audit of a booted machine must report exactly what a full
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

// TestReboot: Reboot returns a machine to the state NewMachine(m.Cfg)
// builds, in place, from a booted history and from a forked one. The
// rebooted machine hashes like a new machine and like its own fork, whose
// hash folds every cache set, audits clean, and still matches the new
// machine after both run the same program. A fork taken before the reboot
// no longer tracks the machine. Reboot refuses mid-run.
func TestReboot(t *testing.T) {
	const seed = 8
	booted := newForkRig(seed)
	resetProgram(t, booted, booted.m, 51)
	forked := booted.m.MustFork()
	resetProgram(t, booted, forked, 52)
	for name, m := range map[string]*Machine{"booted-history": booted.m, "forked-history": forked} {
		t.Run(name, func(t *testing.T) {
			child := m.MustFork()
			h := m.Mem
			if err := m.Reboot(); err != nil {
				t.Fatal(err)
			}
			if m.Mem != h {
				t.Fatal("reboot did not reuse the hierarchy in place")
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
		m.Spawn(m.NewProcess("p"), "t", func(e *Env) { err = m.Reboot() })
		m.Run()
		if f, ok := AsFault(err); !ok || f.Kind != FaultAPIMisuse {
			t.Fatalf("Reboot inside a scheduler run: %v, want an API-misuse SimFault", err)
		}
	})
}

// TestAuditFromMatchesAudit: on a reset machine with each corruption class
// applied, AuditFrom's dirty-set cache audit reports the same fault text as
// the full Audit; with the guard broken it is the full Audit. On a booted
// machine, Audit checks the cache levels over their dirty sets only and
// reports the same fault text as the full audit of its fork.
func TestAuditFromMatchesAudit(t *testing.T) {
	for _, tc := range corruptionCases {
		t.Run(tc.name, func(t *testing.T) {
			tmpl, env, buf := warmMachine(t)
			m := tmpl.MustFork()
			if err := m.ResetFrom(tmpl); err != nil {
				t.Fatal(err)
			}
			if err := m.AuditFrom(tmpl); err != nil {
				t.Fatalf("clean reset machine fails AuditFrom: %v", err)
			}
			tc.corrupt(t, m)
			full, dirty := m.Audit(), m.AuditFrom(tmpl)
			if full == nil || dirty == nil || full.Error() != dirty.Error() {
				t.Fatalf("Audit %v\nAuditFrom %v", full, dirty)
			}
			// Running the template breaks the guard: AuditFrom is Audit.
			env.Load(0x40_0100, buf.Base)
			if got := m.AuditFrom(tmpl); got == nil || got.Error() != full.Error() {
				t.Fatalf("AuditFrom past the guard %v, want %v", got, full)
			}

			tc.corrupt(t, tmpl)
			booted, whole := tmpl.Audit(), tmpl.MustFork().Audit()
			if booted == nil || whole == nil || booted.Error() != whole.Error() {
				t.Fatalf("booted machine's Audit %v\nfull audit of its fork %v", booted, whole)
			}
		})
	}
}
