package afterimage

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"afterimage/internal/runner"
	"afterimage/internal/sim"
)

// Idle-pool suite: labs closed by sweeps, by FullReport and by callers feed
// a process-wide pool of idle machines that NewLab boots and Lab.Fork
// copies into. Recycling must never show in a result, and a closed lab must
// give up its machine completely.

// idleCampaign is one campaign of the idle-pool suite.
type idleCampaign struct {
	name   string
	opts   Options
	sweep  SweepOptions
	traced bool
}

// idleCampaigns cover warm and cold campaigns, all four attacks, both
// models, different seeds, one and two workers, and one traced campaign.
func idleCampaigns() []idleCampaign {
	sweep := func(a SweepAttack, bits, warmup, workers int) SweepOptions {
		return SweepOptions{Attack: a, Intensities: []float64{0, 1, 2, 4}, Bits: bits,
			Warmup: warmup, Runner: runner.Options{Workers: workers}}
	}
	return []idleCampaign{
		{"v1-thread-warm", Options{Seed: 3}, sweep(SweepV1Thread, 8, 3000, 2), false},
		{"v1-process-cold-traced", Options{Seed: 4}, sweep(SweepV1Process, 8, 0, 1), true},
		{"v2-kernel-warm-haswell", Options{Seed: 5, Model: Haswell}, sweep(SweepV2Kernel, 6, 2000, 1), false},
		{"covert-cold", Options{Seed: 6}, sweep(SweepCovert, 4, 0, 2), false},
		{"v1-thread-cold-haswell", Options{Seed: 7, Model: Haswell}, sweep(SweepV1Thread, 8, 0, 2), false},
	}
}

// run executes the campaign on a lab from NewLab, closes the lab, and
// returns the curve's bytes.
func (c idleCampaign) run(t *testing.T) []byte {
	t.Helper()
	lab := NewLab(c.opts)
	defer lab.Close()
	if c.traced {
		lab.EnableTrace(4096)
	}
	res, err := lab.RunFaultSweepCtx(context.Background(), c.sweep)
	if err != nil {
		t.Errorf("%s: %v", c.name, err)
	}
	raw, err := res.JSON()
	if err != nil {
		t.Errorf("%s: marshal: %v", c.name, err)
	}
	return raw
}

// reference is the campaign's fresh reference: every lab, the caller's
// included, built from nothing.
func (c idleCampaign) reference(t *testing.T) []byte {
	t.Helper()
	lab := buildLab(c.opts)
	if c.traced {
		lab.EnableTrace(4096)
	}
	res, err := lab.runFaultSweep(context.Background(), c.sweep, true)
	if err != nil {
		t.Fatalf("%s: fresh reference: %v", c.name, err)
	}
	raw, err := res.JSON()
	if err != nil {
		t.Fatalf("%s: marshal: %v", c.name, err)
	}
	return raw
}

// drainIdle empties the idle pool, so a test sees only the machines it
// closes itself, and returns how many machines of each model waited.
func drainIdle() map[Model]int {
	idleMachines.Lock()
	defer idleMachines.Unlock()
	n := make(map[Model]int)
	for model, ms := range idleMachines.byModel {
		n[model] = len(ms)
	}
	clear(idleMachines.byModel)
	return n
}

// TestSweepIdleMachinesMatchFreshReference: campaigns run back to back, and
// then from two goroutines at once, in orders that hand each campaign
// machines the others closed, and every campaign's bytes equal its fresh
// reference.
func TestSweepIdleMachinesMatchFreshReference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-campaign comparison is slow")
	}
	campaigns := idleCampaigns()
	want := make([][]byte, len(campaigns))
	for i, c := range campaigns {
		want[i] = c.reference(t)
	}
	check := func(how string, i int, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want[i]) {
			t.Errorf("%s, %s: curve differs from the fresh reference:\ngot  %s\nwant %s", campaigns[i].name, how, got, want[i])
		}
	}

	drainIdle()
	for round := 0; round < 2; round++ {
		for i, c := range campaigns {
			check("back to back", i, c.run(t))
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range campaigns {
				i := k
				if g == 1 {
					i = len(campaigns) - 1 - k
				}
				check("concurrent", i, campaigns[i].run(t))
			}
		}(g)
	}
	wg.Wait()

	bound := 2 * runtime.GOMAXPROCS(0)
	for model, n := range drainIdle() {
		if n > bound {
			t.Errorf("%d idle %s machines, bound %d", n, model, bound)
		}
	}
}

// TestSweepIdleMachinesLabLifecycle: a closed lab's machine waits in the
// pool holding nothing but its own arrays, is reused by the next NewLab or
// Fork of its model and never by the other model, and comes back
// state-identical to a machine built from nothing. A closed lab panics
// when used, closing it twice does nothing, and no more than twice
// GOMAXPROCS machines wait per model.
func TestSweepIdleMachinesLabLifecycle(t *testing.T) {
	drainIdle()
	defer drainIdle()

	a := NewLab(Options{Seed: 1})
	a.EnableTrace(1024)
	a.RunVariant1(V1Options{Bits: 4})
	am := a.Machine()
	a.Close()
	a.Close()
	if a.Machine() != nil {
		t.Fatal("a closed lab still holds its machine")
	}
	if am.Telemetry().Bus() != nil || len(am.Processes()) != 0 || am.Now() != 0 {
		t.Fatal("an idle machine kept its trace ring, processes or clock")
	}
	if n := idleCount(CoffeeLake); n != 1 {
		t.Fatalf("%d idle Coffee Lake machines after one Close, want 1 (closing twice adds nothing)", n)
	}

	h := NewLab(Options{Seed: 2, Model: Haswell})
	if h.Machine() == am {
		t.Fatal("a Haswell lab took a Coffee Lake machine")
	}
	b := NewLab(Options{Seed: 9, Quiet: true})
	if b.Machine() != am {
		t.Fatal("the next Coffee Lake lab did not reuse the closed lab's machine")
	}
	if got, want := b.Machine().StateHash(), buildLab(Options{Seed: 9, Quiet: true}).Machine().StateHash(); got != want {
		t.Fatalf("reused machine hash %#016x, machine built from nothing %#016x", got, want)
	}

	// Fork copies into an idle machine of the parent's model.
	h.RunVariant1(V1Options{Bits: 2})
	spare := buildLab(Options{Seed: 3, Model: Haswell})
	sm := spare.Machine()
	spare.Close()
	f := h.MustFork()
	if f.Machine() != sm {
		t.Fatal("Fork did not copy into the idle machine of its model")
	}
	if got, want := f.Machine().StateHash(), h.MustFork().Machine().StateHash(); got != want {
		t.Fatalf("fork into an idle machine hash %#016x, allocated fork %#016x", got, want)
	}

	for name, use := range map[string]func(){
		"Fork":        func() { a.Fork() },
		"RunVariant1": func() { a.RunVariant1(V1Options{Bits: 2}) },
		"ModelName":   func() { a.ModelName() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a closed lab did not panic", name)
				}
			}()
			use()
		}()
	}

	bound := 2 * runtime.GOMAXPROCS(0)
	for i := 0; i < bound+2; i++ {
		NewLab(Options{Seed: int64(i)}).Close()
		buildLab(Options{Seed: int64(i)}).Close()
	}
	if n := idleCount(CoffeeLake); n != bound {
		t.Fatalf("%d idle Coffee Lake machines, want the bound %d", n, bound)
	}
}

// idleCount reports how many machines of the model wait in the pool.
func idleCount(model Model) int {
	idleMachines.Lock()
	defer idleMachines.Unlock()
	return len(idleMachines.byModel[model])
}

// TestSweepIdleMachinesCloseMidRun: a lab closed while its scheduler runs
// drops its machine instead of pooling it.
func TestSweepIdleMachinesCloseMidRun(t *testing.T) {
	drainIdle()
	defer drainIdle()
	lab := NewLab(Options{Seed: 1})
	m := lab.Machine()
	m.Spawn(m.NewProcess("p"), "t", func(e *sim.Env) { lab.Close() })
	if _, err := m.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if n := idleCount(CoffeeLake); n != 0 {
		t.Fatalf("a machine closed mid-run was pooled (%d idle)", n)
	}
}
