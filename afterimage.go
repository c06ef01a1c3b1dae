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

	// traceOn / traceCap remember EnableTrace so campaign drivers
	// (RunFaultSweep) can propagate the same tracing configuration into the
	// fresh per-point labs they boot.
	traceOn  bool
	traceCap int
}

// NewLab boots a fresh simulated machine. Invalid options panic with a
// typed *OptionError; NewLabE is the error-returning variant.
func NewLab(opts Options) *Lab {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	var cfg sim.Config
	switch opts.Model {
	case Haswell:
		cfg = sim.Haswell(opts.Seed)
	default:
		cfg = sim.CoffeeLake(opts.Seed)
	}
	if opts.Quiet {
		cfg = sim.Quiet(cfg)
	}
	cfg.FlushPrefetcherOnSwitch = opts.MitigationFlush
	cfg.IPStride.FullIPTag = opts.FullIPTag
	cfg.IPStride.PIDTag = opts.PIDTag
	if opts.DisableNoisePrefetchers {
		cfg.DCUEnabled, cfg.DPLEnabled, cfg.StreamerEnabled = false, false, false
	}
	cfg.MaxCycles = opts.MaxCycles
	l := &Lab{opts: opts, m: sim.NewMachine(cfg)}
	l.boot()
	return l
}

// reboot returns the lab to the state NewLab(l.opts) builds, in place: the
// machine reboots (see sim.Machine.Reboot) and the lab-level state is set
// as NewLab sets it. Sweeps without a warmup recycle point labs this way.
func (l *Lab) reboot() error {
	if err := l.m.Reboot(); err != nil {
		return err
	}
	l.boot()
	return nil
}

// boot is the lab-level part of NewLab and reboot, on a freshly built
// machine: the audit cadence, the lab RNG at its seed, tracing off.
func (l *Lab) boot() {
	l.m.SetAuditEvery(l.opts.AuditEvery)
	l.rng, l.rngSrc = detrand.New(l.opts.Seed + 31)
	l.traceOn, l.traceCap = false, 0
}

// Fork returns an independent lab whose simulated state is bit-identical
// to the receiver's: the machine forks (see sim.Machine.Fork) and the
// lab-level RNG clones at its exact stream position. Forking a pristine
// lab is observably equivalent to NewLab with the same options — the
// property the fork-vs-fresh differential suite gates — while forking a
// warmed lab shares the warm prefix with the parent at the cost of a few
// slice copies. Tracing is re-enabled on the fork's own hub when the
// parent had it on; the retained parent trace is not carried over.
func (l *Lab) Fork() (*Lab, error) {
	fm, err := l.m.Fork()
	if err != nil {
		return nil, err
	}
	f := &Lab{m: fm}
	f.adopt(l)
	return f, nil
}

// resetFrom overwrites the lab with a copy of t in place: the machine
// resets from t's (see sim.Machine.ResetFrom), and the result is
// state-identical to t.Fork(). Sweeps recycle point labs this way.
func (l *Lab) resetFrom(t *Lab) error {
	if err := l.m.ResetFrom(t.m); err != nil {
		return err
	}
	l.adopt(t)
	return nil
}

// adopt copies t's lab-level state onto l, whose machine already holds a
// copy of t's: the options, the RNG at its exact stream position, and the
// trace setting, which re-enables tracing on l's own hub.
func (l *Lab) adopt(t *Lab) {
	l.opts = t.opts
	l.rngSrc = t.rngSrc.Clone()
	l.rng = rand.New(l.rngSrc)
	l.traceOn, l.traceCap = t.traceOn, t.traceCap
	if t.traceOn {
		l.m.Telemetry().EnableTrace(t.traceCap)
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
