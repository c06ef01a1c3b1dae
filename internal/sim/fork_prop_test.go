package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"afterimage/internal/mem"
)

// Fork-isolation property test: N machines forked from one warmed parent,
// each driven by its own randomized program of loads, batched loads,
// flushes, fences, timed loads, syscalls (kernel-domain switches) and
// enclave calls, with execution interleaved across the forks in randomized
// chunks. Two properties must hold for every seed:
//
//   - isolation: no fork observes another fork's (or the parent's)
//     mutations — each fork's final state hash equals the hash of the SAME
//     program run alone, and the parent's own hash is unchanged;
//   - equivalence: fork + program ≡ fresh machine + program. The reference
//     runs each program on a newly built, identically warmed machine, so it
//     shares no code with the fork it checks.
//
// The same programs then run one after another on one pooled machine,
// reset from the parent before each, and on one machine reset to the
// constructor state (rebooted) before each. A violation is shrunk with
// delta debugging (chunk removal down to single ops, in every program) and
// written under testdata/ for replay; stored counterexamples run first as
// regressions.

// forkOp is one operation of a property program, JSON-encodable so shrunk
// counterexamples can be stored and replayed.
type forkOp struct {
	Kind string `json:"kind"`           // load|batch|flush|fence|timeload|sleep|syscall|enclave
	IP   uint64 `json:"ip,omitempty"`   // load IP (offset into a small pool)
	Page int    `json:"page,omitempty"` // page index into the rig buffer
	Line int    `json:"line,omitempty"` // line index within the page / batch stride
	N    int    `json:"n,omitempty"`    // batch length / sleep cycles
}

type forkProgram []forkOp

// forkPropCase is the persisted counterexample unit: everything needed to
// re-run one failing seed, with the shrunk program in place.
type forkPropCase struct {
	Seed     int64         `json:"seed"`
	Bad      int           `json:"bad"` // index of the diverging fork
	Programs []forkProgram `json:"programs"`
}

const forkRigPages = 32

// forkRig binds a machine, a process env and the property buffer. The same
// binder rebuilds it over a fork, so programs address state by (page, line)
// rather than by pointer.
type forkRig struct {
	m   *Machine
	env *Env
	buf *mem.Mapping
}

// newForkRig boots a NOISY machine (context-switch noise, jitter and
// kernel-noise RNGs all live, so the test proves Fork clones every stream)
// and sets the rig up on it.
func newForkRig(seed int64) *forkRig { return bootForkRig(NewMachine(CoffeeLake(seed))) }

// bootForkRig sets the rig up on m, a booted or rebooted machine: one
// process, one locked buffer, a V2-style kernel syscall that loads a
// caller-supplied user address from the kernel domain, and a warm prefix.
func bootForkRig(m *Machine) *forkRig {
	m.RegisterSyscall(1, func(e *Env, args ...uint64) uint64 {
		e.LoadUser(0xffffffff81000040, mem.VAddr(args[0]))
		return 0
	})
	p := m.NewProcess("prop")
	env := m.Direct(p)
	buf := env.Mmap(forkRigPages*mem.PageSize, mem.MapLocked)
	r := &forkRig{m: m, env: env, buf: buf}
	// Warm prefix: train several stride walks and touch the kernel path so
	// forks inherit non-trivial cache/TLB/prefetcher/RNG state.
	for i := 0; i < 24; i++ {
		r.exec(forkOp{Kind: "load", IP: uint64(i % 5), Page: i % forkRigPages, Line: (i * 3) % 64})
	}
	r.exec(forkOp{Kind: "batch", IP: 1, Page: 2, Line: 1, N: 48})
	r.exec(forkOp{Kind: "syscall", Page: 7, Line: 9})
	r.exec(forkOp{Kind: "timeload", IP: 2, Page: 1, Line: 5})
	return r
}

// rebind rebuilds the rig bindings over a fork of the rig's machine, which
// shares its topology.
func (r *forkRig) rebind(m *Machine) (*forkRig, error) {
	procs := m.Processes()
	if len(procs) != 1 {
		return nil, fmt.Errorf("rig machine has %d processes, want 1", len(procs))
	}
	for _, mp := range procs[0].AS.Mappings() {
		if mp.Base == r.buf.Base {
			return &forkRig{m: m, env: m.Direct(procs[0]), buf: mp}, nil
		}
	}
	return nil, fmt.Errorf("rig buffer at %#x lost", r.buf.Base)
}

// propIP maps the program's small IP index into a realistic text-segment
// pool with deliberate low-8-bit aliases (the prefetcher's index width).
func propIP(i uint64) uint64 { return 0x400000 + (i%8)*0x40 + (i%3)*0x100 }

// exec runs one op against the rig.
func (r *forkRig) exec(op forkOp) {
	page := ((op.Page % forkRigPages) + forkRigPages) % forkRigPages
	line := ((op.Line % 64) + 64) % 64
	va := r.buf.Base + mem.VAddr(page)*mem.PageSize + mem.VAddr(line)*mem.LineSize
	switch op.Kind {
	case "batch":
		n := op.N % 96
		if n < 1 {
			n = 1
		}
		stride := mem.VAddr(line%8+1) * mem.LineSize
		ops := make([]LoadOp, n)
		v := r.buf.Base + mem.VAddr(page)*mem.PageSize
		for i := range ops {
			ops[i] = LoadOp{IP: propIP(op.IP), VA: v}
			v += stride
			if v >= r.buf.End() {
				v = r.buf.Base
			}
		}
		r.env.LoadBatch(ops, nil)
	case "flush":
		r.env.Flush(va)
	case "fence":
		r.env.Fence()
	case "timeload":
		r.env.TimeLoad(propIP(op.IP), va)
	case "sleep":
		r.env.Sleep(uint64(op.N%500) + 1)
	case "syscall":
		r.env.Syscall(1, uint64(va))
	case "enclave":
		ip := propIP(op.IP)
		r.env.EnclaveCall(func(ee *Env) { ee.Load(ip, va) })
	default: // "load"
		r.env.Load(propIP(op.IP), va)
	}
}

// genForkProgram builds a randomized program biased toward loads and
// batches (the paths forks share the most warmed state on).
func genForkProgram(rng *rand.Rand, n int) forkProgram {
	kinds := []string{"load", "load", "load", "batch", "flush", "fence",
		"timeload", "sleep", "syscall", "enclave"}
	prog := make(forkProgram, n)
	for i := range prog {
		prog[i] = forkOp{
			Kind: kinds[rng.Intn(len(kinds))],
			IP:   uint64(rng.Intn(24)),
			Page: rng.Intn(forkRigPages),
			Line: rng.Intn(64),
			N:    rng.Intn(96),
		}
	}
	return prog
}

// runForkIsolation executes the full property for one program set: fork
// len(programs) machines from one warmed parent, interleave the programs
// across the forks in seed-derived chunks, and compare every fork's final
// hash against a solo run of the same program on a freshly built rig; then
// run the programs one after another on a single machine reset from the
// parent before each, and on a single machine rebooted and set up as a
// fresh rig before each, against the same references. Returns the index of
// the first diverging program and a description, or -1 when the property
// holds.
func runForkIsolation(seed int64, programs []forkProgram) (int, string) {
	parent := newForkRig(seed)
	parentHash := parent.m.StateHash()

	forks := make([]*forkRig, len(programs))
	for i := range programs {
		fm, err := parent.m.Fork()
		if err != nil {
			return i, "fork refused: " + err.Error()
		}
		fr, err := parent.rebind(fm)
		if err != nil {
			return i, err.Error()
		}
		forks[i] = fr
	}

	// Interleaved execution: randomized round-robin chunks, deterministic
	// per seed so failures replay exactly.
	irng := rand.New(rand.NewSource(seed*1000 + 7))
	cursors := make([]int, len(programs))
	for {
		remaining := false
		for i, prog := range programs {
			if cursors[i] >= len(prog) {
				continue
			}
			remaining = true
			chunk := 1 + irng.Intn(4)
			for n := 0; n < chunk && cursors[i] < len(prog); n++ {
				forks[i].exec(prog[cursors[i]])
				cursors[i]++
			}
		}
		if !remaining {
			break
		}
	}

	// Reference: the same programs, each alone on a freshly built,
	// identically warmed machine.
	want := make([]uint64, len(programs))
	for i, prog := range programs {
		ref := newForkRig(seed)
		for _, op := range prog {
			ref.exec(op)
		}
		want[i] = ref.m.StateHash()
		if got := forks[i].m.StateHash(); got != want[i] {
			return i, fmt.Sprintf("fork %d hash %#016x, solo fresh run %#016x", i, got, want[i])
		}
		if err := forks[i].m.Audit(); err != nil {
			return i, fmt.Sprintf("fork %d failed final audit: %v", i, err)
		}
	}

	// Pooled arm: one machine runs every program in turn, reset from the
	// parent before each — the way a sweep recycles its point machines. It
	// starts as an unrelated machine, so the first reset copies whole and
	// the rest copy only the cache sets the previous program dirtied. The
	// parent audits clean first, as a sweep's template does, so each final
	// Audit checks only the cache sets the program dirtied.
	if err := parent.m.Audit(); err != nil {
		return 0, "parent failed its audit: " + err.Error()
	}
	pooled := newForkRig(seed + 1000).m
	for i, prog := range programs {
		if err := pooled.ResetFrom(parent.m); err != nil {
			return i, "reset refused: " + err.Error()
		}
		pr, err := parent.rebind(pooled)
		if err != nil {
			return i, err.Error()
		}
		for _, op := range prog {
			pr.exec(op)
		}
		if got := pooled.StateHash(); got != want[i] {
			return i, fmt.Sprintf("pooled machine on program %d hash %#016x, solo fresh run %#016x", i, got, want[i])
		}
		if err := pooled.Audit(); err != nil {
			return i, fmt.Sprintf("pooled machine on program %d failed final audit: %v", i, err)
		}
	}

	// Reboot arm: one machine runs every program in turn, reset to the
	// constructor state and set up as a fresh rig before each — the way a
	// sweep without a warmup recycles its point machines. It starts with the
	// rig's history, so the first reboot already clears dirty sets. A
	// rebooted machine folds its clean cache sets as zeros, so its fork,
	// which folds every set, must hash the same, and its Audit checks only
	// the dirty sets.
	rebooted := newForkRig(seed).m
	for i, prog := range programs {
		if err := rebooted.ResetFrom(nil); err != nil {
			return i, "reboot refused: " + err.Error()
		}
		rr := bootForkRig(rebooted)
		for _, op := range prog {
			rr.exec(op)
		}
		if got := rebooted.StateHash(); got != want[i] {
			return i, fmt.Sprintf("rebooted machine on program %d hash %#016x, solo fresh run %#016x", i, got, want[i])
		}
		if got := rebooted.MustFork().StateHash(); got != want[i] {
			return i, fmt.Sprintf("fork of the rebooted machine on program %d hash %#016x, solo fresh run %#016x", i, got, want[i])
		}
		if err := rebooted.Audit(); err != nil {
			return i, fmt.Sprintf("rebooted machine on program %d failed final audit: %v", i, err)
		}
	}

	if got := parent.m.StateHash(); got != parentHash {
		return 0, fmt.Sprintf("parent hash mutated by fork runs: %#016x -> %#016x", parentHash, got)
	}
	return -1, ""
}

// shrinkForkPrograms minimises a failing program set with delta debugging:
// it shrinks each program in turn (chunk removal down to single ops),
// holding the others fixed, and repeats the round until no removal in any
// program keeps fails true. The pooled and rebooted arms carry state from
// one program to the next on the same machine, so the ops behind a failure
// can sit in an earlier program than the one that diverged; shrinking every
// program keeps them and drops the rest.
func shrinkForkPrograms(programs []forkProgram, fails func([]forkProgram) bool) []forkProgram {
	cur := append([]forkProgram(nil), programs...)
	for removed := true; removed; {
		removed = false
		for i := range cur {
			with := func(p forkProgram) []forkProgram {
				out := append([]forkProgram(nil), cur...)
				out[i] = p
				return out
			}
			p := cur[i]
			for chunk := max(len(p)/2, 1); chunk >= 1 && len(p) > 0; {
				removedAny := false
				for start := 0; start < len(p); {
					end := min(start+chunk, len(p))
					cand := append(append(forkProgram{}, p[:start]...), p[end:]...)
					if fails(with(cand)) {
						p = cand
						removedAny, removed = true, true
					} else {
						start += chunk
					}
				}
				if !removedAny {
					chunk /= 2
				}
			}
			cur[i] = p
		}
	}
	return cur
}

const forkPropCaseDir = "testdata/fork_counterexamples"

// TestForkIsolationProperty is the property test: randomized program sets
// over many seeds, three forks each, with failures shrunk and persisted.
func TestForkIsolationProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short")
	}
	const nForks = 3
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		programs := make([]forkProgram, nForks)
		for i := range programs {
			programs[i] = genForkProgram(rng, 30+rng.Intn(90))
		}
		bad, desc := runForkIsolation(seed, programs)
		if bad < 0 {
			continue
		}
		shrunk := shrinkForkPrograms(programs, func(ps []forkProgram) bool {
			i, _ := runForkIsolation(seed, ps)
			return i >= 0
		})
		minBad, minDesc := runForkIsolation(seed, shrunk)
		lens := make([]int, len(shrunk))
		for i, p := range shrunk {
			lens[i] = len(p)
		}
		path := saveForkPropCase(t, forkPropCase{Seed: seed, Bad: minBad, Programs: shrunk})
		t.Fatalf("seed %d: fork isolation violated at program %d (%s); shrunk the programs to %v ops, failing at program %d (%s), saved to %s",
			seed, bad, desc, lens, minBad, minDesc, path)
	}
}

// TestShrinkForkProgramsMinimizesEveryProgram: with a failure that needs
// op A in program 0 and op B in program 2, the shrinker must strip every
// other op from all three programs, program 1 included.
func TestShrinkForkProgramsMinimizesEveryProgram(t *testing.T) {
	a := forkOp{Kind: "op-a", Page: 3}
	b := forkOp{Kind: "op-b", Line: 9}
	rng := rand.New(rand.NewSource(5))
	programs := make([]forkProgram, 3)
	for i := range programs {
		programs[i] = genForkProgram(rng, 40)
	}
	programs[0] = slices.Insert(programs[0], 17, a)
	programs[2] = slices.Insert(programs[2], 5, b)
	fails := func(ps []forkProgram) bool {
		return slices.Contains(ps[0], a) && slices.Contains(ps[2], b)
	}
	got := shrinkForkPrograms(programs, fails)
	want := []forkProgram{{a}, {}, {b}}
	if len(got) != len(want) {
		t.Fatalf("shrunk to %d programs, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("program %d shrunk to %v, want %v", i, got[i], want[i])
		}
	}
}

func saveForkPropCase(t *testing.T, c forkPropCase) string {
	t.Helper()
	if err := os.MkdirAll(forkPropCaseDir, 0o755); err != nil {
		t.Logf("cannot create %s: %v", forkPropCaseDir, err)
		return "(unsaved)"
	}
	path := filepath.Join(forkPropCaseDir, fmt.Sprintf("seed%d.json", c.Seed))
	data, err := json.MarshalIndent(c, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		t.Logf("cannot save counterexample: %v", err)
		return "(unsaved)"
	}
	return path
}

// TestForkIsolationRegressions replays every stored (previously shrunk)
// counterexample, so a fixed fork-isolation bug stays fixed.
func TestForkIsolationRegressions(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(forkPropCaseDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no stored counterexamples")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var c forkPropCase
			if err := json.Unmarshal(data, &c); err != nil {
				t.Fatal(err)
			}
			if bad, desc := runForkIsolation(c.Seed, c.Programs); bad >= 0 {
				t.Fatalf("stored counterexample still diverges at fork %d: %s", bad, desc)
			}
		})
	}
}

// TestForkRefusedMidSchedulerRun pins Fork's one refusal: forking while the
// scheduler is mid-run would capture a half-applied context switch.
func TestForkRefusedMidSchedulerRun(t *testing.T) {
	m := NewMachine(Quiet(CoffeeLake(3)))
	var ferr error
	m.Spawn(m.NewProcess("p"), "t", func(e *Env) {
		_, ferr = m.Fork()
	})
	m.Run()
	if ferr == nil {
		t.Fatal("Fork inside a scheduler run did not refuse")
	}
}
