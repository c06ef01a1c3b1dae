// Package afterimage is a full reproduction of "AfterImage: Leaking Control
// Flow Data and Tracking Load Operations via the Hardware Prefetcher"
// (ASPLOS 2023) as a library. Because the attack lives in Intel silicon that
// Go cannot time with cycle accuracy, the package drives every attack,
// reverse-engineering microbenchmark and mitigation study against a
// deterministic cycle-level simulator of a Haswell / Coffee Lake memory
// subsystem (see DESIGN.md for the substitution argument).
//
// The entry point is the Lab: a simulated machine plus the attacker
// toolbox. Each Run* method reproduces one of the paper's experiments and
// returns structured results that the cmd/ binaries print as paper-style
// tables and figures.
//
//	lab := afterimage.NewLab(afterimage.Options{Model: afterimage.CoffeeLake, Seed: 1})
//	res := lab.RunVariant1(afterimage.V1Options{Bits: 64})
//	fmt.Println(res.SuccessRate)
package afterimage

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"afterimage/internal/detrand"
	"afterimage/internal/sim"
)

// Model selects the simulated microarchitecture (Table 2).
type Model int

// The two machines of Table 2.
const (
	CoffeeLake Model = iota // i7-9700
	Haswell                 // i7-4770
)

// String names the model.
func (m Model) String() string {
	switch m {
	case CoffeeLake:
		return "Coffee Lake i7-9700"
	case Haswell:
		return "Haswell i7-4770"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Options configures a Lab.
type Options struct {
	Model Model
	// Seed drives every pseudo-random element (noise, jitter, ASLR): equal
	// seeds reproduce runs exactly.
	Seed int64
	// Quiet removes context-switch noise — the setting for the §4
	// reverse-engineering microbenchmarks. Attack evaluations (§7) keep
	// noise on.
	Quiet bool
	// MitigationFlush enables the proposed clear-ip-prefetcher instruction
	// at every domain switch (§8.3), which should defeat every attack.
	MitigationFlush bool
	// FullIPTag / PIDTag enable the §8.2 hardware-tagging mitigations: the
	// history table verifies the whole IP, or additionally a process-ID
	// tag. Either breaks the cross-context aliasing AfterImage needs.
	FullIPTag bool
	PIDTag    bool
	// DisableNoisePrefetchers turns the DCU/DPL/streamer prefetchers off
	// (ablation: quantifies their false-positive contribution).
	DisableNoisePrefetchers bool
	// MaxCycles arms the simulator's cycle-budget watchdog: once the
	// machine clock passes it, every simulated operation faults with a
	// FaultBudget SimFault, so runaway experiments terminate with a typed
	// error (via the Run*E variants) instead of hanging. 0 disables it.
	MaxCycles uint64
	// AuditEvery enables the invariant-audit cadence: a full structural
	// audit of the machine state every N domain switches, with a failing
	// audit surfacing as a FaultCorruption SimFault through the Run*E
	// variants. 0 disables the cadence (one integer compare per switch).
	// Audits are read-only, so enabling them never changes clean-run
	// results. Campaign drivers (RunFaultSweep, FullReport) propagate this
	// into every per-point lab.
	AuditEvery int
}

// Lab is a simulated machine plus bookkeeping for the experiments.
type Lab struct {
	opts Options
	m    *sim.Machine
	// rng is detrand-backed (stream-identical to the plain source it
	// replaced) so Fork can clone it at its exact position.
	rng    *rand.Rand
	rngSrc *detrand.Source
}

// NewLab boots a simulated machine. Invalid options panic with a typed
// *OptionError; NewLabE is the error-returning variant. When a closed lab
// of the same model has left a machine in the process-wide idle pool (see
// Close), NewLab boots that machine to the new options in place
// (sim.Machine.Boot) instead of building one; the two are state-identical,
// so results do not depend on which happened.
func NewLab(opts Options) *Lab {
	cfg := opts.machineConfig()
	m := takeIdle(opts.Model)
	if m == nil || m.Boot(cfg) != nil {
		m = sim.NewMachine(cfg)
	}
	return newLabOn(opts, m)
}

// buildLab is NewLab building its machine from nothing, never from the
// idle pool: the fresh sweep reference and the replay harness take their
// labs this way, so the recycled labs are checked against machines the
// pool never touched.
func buildLab(opts Options) *Lab {
	return newLabOn(opts, sim.NewMachine(opts.machineConfig()))
}

// newLabOn wraps m, a machine booted to opts, in a lab.
func newLabOn(opts Options, m *sim.Machine) *Lab {
	l := &Lab{opts: opts, m: m}
	l.boot()
	return l
}

// machineConfig validates the options, panicking with a typed
// *OptionError, and derives the machine configuration they describe.
func (o Options) machineConfig() sim.Config {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	var cfg sim.Config
	switch o.Model {
	case Haswell:
		cfg = sim.Haswell(o.Seed)
	default:
		cfg = sim.CoffeeLake(o.Seed)
	}
	if o.Quiet {
		cfg = sim.Quiet(cfg)
	}
	cfg.FlushPrefetcherOnSwitch = o.MitigationFlush
	cfg.IPStride.FullIPTag = o.FullIPTag
	cfg.IPStride.PIDTag = o.PIDTag
	if o.DisableNoisePrefetchers {
		cfg.DCUEnabled, cfg.DPLEnabled, cfg.StreamerEnabled = false, false, false
	}
	cfg.MaxCycles = o.MaxCycles
	return cfg
}

// boot is the lab-level part of NewLab and resetFrom(nil), on a machine
// just booted: the audit cadence and the lab RNG at its seed, reseeded in
// place when the lab already has one.
func (l *Lab) boot() {
	l.m.SetAuditEvery(l.opts.AuditEvery)
	if l.rng == nil {
		l.rng, l.rngSrc = detrand.New(l.opts.Seed + 31)
	} else {
		l.rng.Seed(l.opts.Seed + 31)
	}
}

// Fork returns an independent lab whose simulated state is bit-identical
// to the receiver's: the machine is copied (see sim.Machine.Fork) and the
// lab-level RNG clones at its exact stream position. Forking a pristine
// lab is observably equivalent to NewLab with the same options — the
// property the fork-vs-fresh differential suite gates — while forking a
// warmed lab shares the warm prefix with the parent at the cost of a few
// slice copies. When the idle pool holds a machine of the lab's model (see
// Close), the copy goes into that machine's arrays
// (sim.Machine.ResetFrom) instead of new ones. Tracing is re-enabled on the
// fork's own hub when the parent had it on; the retained parent trace is
// not carried over.
func (l *Lab) Fork() (*Lab, error) {
	if l.m == nil {
		panic("afterimage: Fork of a closed Lab")
	}
	fm := takeIdle(l.opts.Model)
	var err error
	if fm == nil {
		fm, err = l.m.Fork()
	} else if err = fm.ResetFrom(l.m); err != nil {
		putIdle(l.opts.Model, fm) // a refused reset leaves it untouched
	}
	if err != nil {
		return nil, err
	}
	f := &Lab{m: fm}
	f.adopt(l)
	return f, nil
}

// Close hands the lab's machine to the process-wide idle pool, where the
// next NewLab or Fork of the same model reuses it instead of building a
// new one (about 3.8 MB of cache arrays for Coffee Lake). The machine is
// booted to its own config on the way in, so an idle machine retains only
// its own arrays: no processes, no trace ring and no reference to another
// machine. The pool keeps at most 2*runtime.GOMAXPROCS(0) machines per
// model (idleBound); a machine that finds it full, or whose scheduler is
// mid-run, is dropped instead. Read everything needed from the lab (results,
// PhaseSummaries, MetricsSnapshot, WriteTrace, Machine) before closing it:
// a closed lab has no machine, and using it panics. Closing a closed lab
// does nothing. Sweeps close the labs they create; long-running callers
// that create many labs should close the ones they are done with, and
// labs left open are garbage collected as before.
func (l *Lab) Close() {
	m := l.m
	if m == nil {
		return
	}
	l.m = nil
	if idleRoom(l.opts.Model) && m.Boot(m.Cfg) == nil {
		putIdle(l.opts.Model, m)
	}
}

// idleMachines is the process-wide pool behind Close: machines booted to
// their own config, by model, waiting for NewLab to boot them or Fork to
// copy into them. At most idleBound() machines wait per model, so the pool
// bounds the memory it holds.
var idleMachines = struct {
	sync.Mutex
	byModel map[Model][]*sim.Machine
}{byModel: make(map[Model][]*sim.Machine)}

// takeIdle removes and returns an idle machine of the model, or nil.
func takeIdle(model Model) *sim.Machine {
	idleMachines.Lock()
	defer idleMachines.Unlock()
	ms := idleMachines.byModel[model]
	if len(ms) == 0 {
		return nil
	}
	m := ms[len(ms)-1]
	ms[len(ms)-1] = nil
	idleMachines.byModel[model] = ms[:len(ms)-1]
	return m
}

// idleBound is how many machines may wait per model: two for each
// campaign that can run at once, because a campaign holds its own lab
// while its point lab runs. The pool takes before it builds, so the
// machines alive and idle never exceed the most that were in use at once.
func idleBound() int { return 2 * runtime.GOMAXPROCS(0) }

// idleRoom reports whether the model's idle machines are below the bound.
func idleRoom(model Model) bool {
	idleMachines.Lock()
	defer idleMachines.Unlock()
	return len(idleMachines.byModel[model]) < idleBound()
}

// putIdle adds m to the model's idle machines, or drops it when they are
// at the bound.
func putIdle(model Model, m *sim.Machine) {
	idleMachines.Lock()
	defer idleMachines.Unlock()
	if ms := idleMachines.byModel[model]; len(ms) < idleBound() {
		idleMachines.byModel[model] = append(ms, m)
	}
}

// resetFrom overwrites the lab with a copy of t in place: the machine
// resets from t's (see sim.Machine.ResetFrom), and the result is
// state-identical to t.Fork(). A nil t is the constructor state: the
// machine boots to its own config, and the lab becomes state-identical to
// NewLab(l.opts). Sweeps recycle point labs this way.
func (l *Lab) resetFrom(t *Lab) error {
	if t == nil {
		if err := l.m.Boot(l.m.Cfg); err != nil {
			return err
		}
		l.boot()
		return nil
	}
	if err := l.m.ResetFrom(t.m); err != nil {
		return err
	}
	l.adopt(t)
	return nil
}

// adopt copies t's lab-level state onto l, whose machine already holds a
// copy of t's: the options, the RNG at its exact stream position, and
// tracing, which is turned on in l's own hub with t's ring capacity.
func (l *Lab) adopt(t *Lab) {
	l.opts = t.opts
	l.rngSrc = t.rngSrc.Clone()
	l.rng = rand.New(l.rngSrc)
	if b := t.m.Telemetry().Bus(); b != nil {
		l.m.Telemetry().EnableTrace(b.Cap())
	}
}

// MustFork is Fork that panics on failure (a mid-run fork is a programming
// error).
func (l *Lab) MustFork() *Lab {
	f, err := l.Fork()
	if err != nil {
		panic(err)
	}
	return f
}

// Machine exposes the underlying simulator for advanced use (building
// custom victims or attacks on the same substrate).
func (l *Lab) Machine() *sim.Machine { return l.m }

// ModelName reports the simulated machine's name.
func (l *Lab) ModelName() string { return l.m.Cfg.Name }

// Seconds converts simulated cycles to wall-clock seconds on the modelled
// part.
func (l *Lab) Seconds(cycles uint64) float64 { return l.m.Seconds(cycles) }

// randomBits draws n secret bits deterministically.
func (l *Lab) randomBits(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = l.rng.Intn(2) == 1
	}
	return out
}

// boolsEqual counts positions where two bit strings agree.
func boolsEqual(a, b []bool) int {
	n := 0
	for i := range a {
		if i < len(b) && a[i] == b[i] {
			n++
		}
	}
	return n
}
