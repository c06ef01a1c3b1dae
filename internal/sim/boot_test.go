package sim

import (
	"math/rand"
	"testing"
)

// Boot suite: Boot(cfg) must return a machine to NewMachine(cfg)'s state in
// place whatever the machine ran before — another seed, Quiet and
// mitigation variants, injected faults, planted corruption, a copy of
// another machine — as long as cfg keeps the machine's cache and TLB
// geometry, and must refuse everything else without touching the machine.

// flushingPerturber stands in for a fault engine: every period cycles it
// flushes the IP-stride table and injects kernel noise.
type flushingPerturber struct{ period, next uint64 }

func (p *flushingPerturber) Perturb(m *Machine, now uint64) {
	if now < p.next {
		return
	}
	p.next = now + p.period
	m.Pref.IPStride.Flush()
	m.InjectKernelNoise(4, 1)
}

// runBootProgram sets the fork rig up on m and runs a seed-derived program
// on it.
func runBootProgram(m *Machine, seed int64) {
	r := bootForkRig(m)
	for _, op := range genForkProgram(rand.New(rand.NewSource(seed)), 80) {
		r.exec(op)
	}
}

// mitigated is cfg with every §8 mitigation and the noise prefetchers off.
func mitigated(cfg Config) Config {
	cfg.FlushPrefetcherOnSwitch = true
	cfg.IPStride.FullIPTag = true
	cfg.IPStride.PIDTag = true
	cfg.DCUEnabled, cfg.DPLEnabled, cfg.StreamerEnabled = false, false, false
	return cfg
}

// TestBootAcrossConfigs: a machine runs programs under one seed, is booted
// to a Quiet variant and to a mitigated variant of other seeds and runs
// there under a perturber, has every corruption class planted, and is then
// booted to a fourth seed's config of the same geometry. It must hash like
// NewMachine of that config, and so must its fork, which folds every cache
// set; it must audit clean and stay in step with the new machine under one
// program. The history ends on the machine itself and on a copy of it, so
// cache levels with and without an origin are booted.
func TestBootAcrossConfigs(t *testing.T) {
	for _, copied := range []bool{false, true} {
		name := "booted-history"
		if copied {
			name = "copied-history"
		}
		t.Run(name, func(t *testing.T) {
			m := NewMachine(CoffeeLake(21))
			runBootProgram(m, 1)
			for i, cfg := range []Config{Quiet(CoffeeLake(22)), mitigated(CoffeeLake(23))} {
				if err := m.Boot(cfg); err != nil {
					t.Fatal(err)
				}
				m.SetPerturber(&flushingPerturber{period: 5000})
				runBootProgram(m, int64(2+i))
			}
			if copied {
				m = m.MustFork()
				runBootProgram(m, 4)
			}
			m.Pref.IPStride.CorruptStride(0, m.Cfg.IPStride.MaxStrideBytes+512)
			m.Pref.IPStride.CorruptCrossFrame()
			m.Mem.CorruptInclusivity()
			m.TLB.CorruptInsert(m.Kernel.AS.ID, 0x3)
			if m.Audit() == nil {
				t.Fatal("test premise: the planted corruption audits clean")
			}

			target := CoffeeLake(24)
			if err := m.Boot(target); err != nil {
				t.Fatal(err)
			}
			fresh := NewMachine(target)
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
			requireFresh("booted")
			if m.Cfg != target {
				t.Fatal("booted machine does not carry the target config")
			}
			runBootProgram(m, 5)
			runBootProgram(fresh, 5)
			requireFresh("after one program")
		})
	}
}

// TestBootRefused: Boot refuses another cache geometry in both directions,
// a mid-run machine and an invalid IP-stride config, and leaves the machine
// as it was.
func TestBootRefused(t *testing.T) {
	badStride := CoffeeLake(4)
	badStride.IPStride.Entries = 0
	cases := []struct {
		name   string
		m      *Machine
		cfg    Config
		misuse bool // an API-misuse SimFault, else a plain config error
	}{
		{"haswell-on-coffee-lake", NewMachine(CoffeeLake(3)), Haswell(3), true},
		{"coffee-lake-on-haswell", NewMachine(Haswell(3)), CoffeeLake(3), true},
		{"invalid-ip-stride", NewMachine(CoffeeLake(3)), badStride, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runBootProgram(tc.m, 9)
			before, cfg := tc.m.StateHash(), tc.m.Cfg
			err := tc.m.Boot(tc.cfg)
			if err == nil {
				t.Fatal("Boot accepted the config")
			}
			if f, ok := AsFault(err); ok != tc.misuse || (ok && f.Kind != FaultAPIMisuse) {
				t.Fatalf("refusal %v", err)
			}
			if tc.m.StateHash() != before || tc.m.Cfg != cfg {
				t.Fatal("a refused Boot changed the machine")
			}
		})
	}
	t.Run("mid-run", func(t *testing.T) {
		m := NewMachine(Quiet(CoffeeLake(3)))
		var err error
		m.Spawn(m.NewProcess("p"), "t", func(e *Env) { err = m.Boot(CoffeeLake(4)) })
		m.Run()
		if f, ok := AsFault(err); !ok || f.Kind != FaultAPIMisuse {
			t.Fatalf("Boot inside a scheduler run: %v, want an API-misuse SimFault", err)
		}
	})
}
