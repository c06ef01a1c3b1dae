package afterimage

// Fork-vs-fresh differential suite: snapshot-fork execution must be
// observationally indistinguishable from booting fresh. Every check here
// gates against the SAME seed-path goldens as the hot-path differential
// suite (testdata/hotpath_golden.json) — recorded before forking existed —
// so a fork that leaks state from its parent, shares a mutable slice, or
// perturbs an RNG stream diverges from a reference it cannot regenerate.
// Three legs mirror the hot-path suite:
//
//   - every Table 3 experiment run on a lab FORKED from a pristine template
//     must reproduce the fresh-lab machine digest bit-for-bit,
//   - the fault-sweep campaign must produce identical per-point digests
//     when every point boots fresh and when points fork the warmed template
//     (the campaign path, which TestHotPathDifferentialFaultSweep already
//     gates),
//   - the randomized traces must digest identically when the machine is
//     forked mid-trace and the suffix replayed on the fork — and the parent,
//     continued past the fork, must digest identically too (isolation).

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"afterimage/internal/faults"
	"afterimage/internal/mem"
	"afterimage/internal/runner"
)

// findMapping locates the fork's clone of a parent mapping by base address
// (Machine.Fork preserves bases; only the backing slices are copied).
func findMapping(as *mem.AddressSpace, base mem.VAddr, t *testing.T) *mem.Mapping {
	t.Helper()
	for _, mp := range as.Mappings() {
		if mp.Base == base {
			return mp
		}
	}
	t.Fatalf("fork lost mapping at base %#x", base)
	return nil
}

// forkTraceRig forks the rig's machine and re-binds processes, envs and
// mappings against the fork, so the trace driver can continue on it.
func forkTraceRig(t *testing.T, r *traceRig) *traceRig {
	t.Helper()
	fm, err := r.m.Fork()
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	procs := fm.Processes()
	if len(procs) != 2 {
		t.Fatalf("fork carried %d processes, want 2", len(procs))
	}
	pa, pb := procs[0], procs[1]
	return &traceRig{
		m:       fm,
		ea:      fm.Direct(pa),
		eb:      fm.Direct(pb),
		bufA:    findMapping(pa.AS, r.bufA.Base, t),
		recl:    findMapping(pa.AS, r.recl.Base, t),
		shared:  findMapping(pa.AS, r.shared.Base, t),
		sharedB: findMapping(pb.AS, r.sharedB.Base, t),
		bufB:    findMapping(pb.AS, r.bufB.Base, t),
	}
}

// TestForkDifferentialRandomTraces forks each golden trace machine at
// several points — pristine, mid-trace, late — replays the remaining steps
// on the fork, and requires the fork's final digest to equal the unbroken
// seed-path digest. The parent is then continued over the same suffix and
// must reach the identical digest: the fork observed no state the parent
// lost, and the parent observed no mutation the fork made.
func TestForkDifferentialRandomTraces(t *testing.T) {
	want := loadHotpathGolden(t).Traces
	if len(want) == 0 {
		t.Fatal("golden has no trace digests")
	}
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 99}
	const steps = 4000
	for _, seed := range seeds {
		w, ok := want[fmt.Sprint(seed)]
		if !ok {
			t.Fatalf("golden missing trace seed %d", seed)
		}
		for _, forkAt := range []int{0, steps / 2, steps - 100} {
			r := newTraceRig(seed)
			r.run(forkAt)
			f := forkTraceRig(t, r)
			f.run(steps - forkAt)
			if got := hexDigest(f.m.StateHash()); got != w {
				t.Errorf("seed %d fork@%d: forked digest %s, seed path recorded %s",
					seed, forkAt, got, w)
			}
			r.run(steps - forkAt)
			if got := hexDigest(r.m.StateHash()); got != w {
				t.Errorf("seed %d fork@%d: parent digest %s after fork, seed path recorded %s",
					seed, forkAt, got, w)
			}
		}
	}
}

// TestForkDifferentialTable3 runs every Table 3 experiment on a lab forked
// from a pristine template — the exact execution shape RunFaultSweep's
// forked mode uses — and requires each final machine digest to match the
// fresh-lab seed-path golden. The final audit runs on the forked machine,
// so every audit checker (including mem.spaces) sees fork-built state.
func TestForkDifferentialTable3(t *testing.T) {
	opts := hotpathReportOptions()
	want := loadHotpathGolden(t).Table3
	got := map[string]string{}
	for i, spec := range table3Specs(opts) {
		tmpl := NewLab(table3LabOptions(opts, i, spec.key))
		lab := tmpl.MustFork()
		lab.ArmCancel(context.Background())
		_, err := spec.run(context.Background(), lab)
		if err == nil {
			err = lab.m.Audit()
		}
		if err != nil {
			t.Fatalf("%s (forked): %v", spec.key, err)
		}
		got[spec.key] = hexDigest(lab.m.StateHash())
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("table3 %s: forked digest %s, seed path recorded %s", key, got[key], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("experiment set drifted: %d run forked, %d recorded", len(got), len(want))
	}
}

// TestForkDifferentialFaultSweepFresh runs the golden fault-sweep campaign
// with a fresh boot per point and requires every point digest to match the
// recorded seed path. Together with TestHotPathDifferentialFaultSweep —
// which runs the forked campaign against the same goldens — this pins fork
// and fresh bit-identical end to end (scheduler, noise, fault perturbation
// and audit paths included).
func TestForkDifferentialFaultSweepFresh(t *testing.T) {
	o := hotpathSweepOptions()
	res, _ := NewLab(Options{Seed: 42, Quiet: true}).runFaultSweep(context.Background(), o, true)
	want := loadHotpathGolden(t).Sweep
	if len(res.Points) != len(want) {
		t.Fatalf("sweep has %d points, seed path recorded %d", len(res.Points), len(want))
	}
	for i, pt := range res.Points {
		if got := hexDigest(pt.StateHash); got != want[i] {
			t.Errorf("sweep point %d (fresh): state hash %s, seed path recorded %s", i, got, want[i])
		}
	}
}

// TestForkDifferentialWarmupSweep gates the campaign warm prefix: with
// Warmup set, the forked campaign runs the preconditioning trace once on the
// template while the fresh boot replays it per point — and every point must
// still digest identically. This is the property that makes the warm-once
// amortisation (BenchmarkSweepForked vs BenchmarkSweepFresh) legitimate.
func TestForkDifferentialWarmupSweep(t *testing.T) {
	o := hotpathSweepOptions()
	o.Warmup = 20_000
	run := func(fresh bool) []string {
		res, _ := NewLab(Options{Seed: 42, Quiet: true}).runFaultSweep(context.Background(), o, fresh)
		got := make([]string, len(res.Points))
		for i, pt := range res.Points {
			got[i] = hexDigest(pt.StateHash)
		}
		return got
	}
	forked, fresh := run(false), run(true)
	if len(forked) != len(fresh) || len(forked) != len(o.Intensities) {
		t.Fatalf("point counts diverged: forked %d, fresh %d, want %d",
			len(forked), len(fresh), len(o.Intensities))
	}
	for i := range forked {
		if forked[i] != fresh[i] {
			t.Errorf("warmup sweep point %d: forked %s, fresh %s", i, forked[i], fresh[i])
		}
	}
	// A warmed campaign must actually differ from an unwarmed one — if the
	// warmup trace were silently skipped, the equality above would be vacuous.
	o2 := hotpathSweepOptions()
	res := NewLab(Options{Seed: 42, Quiet: true}).RunFaultSweep(o2)
	if hexDigest(res.Points[0].StateHash) == forked[0] {
		t.Fatal("warmup had no effect on point state (trace skipped?)")
	}
}

// TestLabForkPristine pins the Lab-level fork contract the sweep template
// relies on: a fork of an untouched lab digests identically to a fresh
// NewLab with the same options, RNG stream included.
func TestLabForkPristine(t *testing.T) {
	opts := Options{Seed: 42, Quiet: true}
	fresh := NewLab(opts)
	forked := NewLab(opts).MustFork()
	if f, g := fresh.m.StateHash(), forked.m.StateHash(); f != g {
		t.Fatalf("pristine fork digest %#x, fresh lab %#x", g, f)
	}
	// The lab RNG must continue the same stream (randomBits drives every
	// attack's secret): equal draws, fork-first to prove independence.
	fb := forked.randomBits(64)
	gb := fresh.randomBits(64)
	if boolsEqual(fb, gb) != 64 {
		t.Fatal("forked lab RNG diverged from fresh lab RNG")
	}
}

// TestSweepForkedMatchesFreshBytesUnderCorruption: with state-corruption
// faults firing, the forked campaign — pooled point labs reset from the
// template, final audits over the dirty cache sets — must produce the same
// result bytes as the campaign that boots every point fresh, error messages
// included. It covers all four attacks, the corruption kinds alone and
// every kind, on one worker and on two. Audit messages print ASIDs
// normalized, so they do not depend on how many address spaces the process
// created before.
func TestSweepForkedMatchesFreshBytesUnderCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is slow")
	}
	kindSets := map[string][]faults.Kind{
		"corruption": faults.CorruptionKinds(),
		"all":        append(faults.AllKinds(), faults.CorruptionKinds()...),
	}
	var quarantined, asidErrs int
	for _, attack := range []SweepAttack{SweepV1Thread, SweepV1Process, SweepV2Kernel, SweepCovert} {
		for name, kinds := range kindSets {
			for _, workers := range []int{1, 2} {
				o := SweepOptions{
					Attack:      attack,
					Bits:        8,
					Intensities: []float64{0, 1, 2, 0.5},
					Faults:      faults.Config{EventsPerMCycle: 300, Kinds: kinds},
					Runner:      runner.Options{Workers: workers, Sleep: func(time.Duration) {}},
				}
				run := func(fresh bool) []byte {
					res, err := NewLab(Options{Seed: 42}).runFaultSweep(context.Background(), o, fresh)
					if err != nil {
						t.Fatalf("%s/%s/workers=%d fresh=%v: %v", attack, name, workers, fresh, err)
					}
					for _, pt := range res.Points {
						if pt.Quarantined {
							quarantined++
						}
						if strings.Contains(pt.Err, "asid") {
							asidErrs++
						}
					}
					raw, err := res.JSON()
					if err != nil {
						t.Fatal(err)
					}
					return raw
				}
				if forked, fresh := run(false), run(true); !bytes.Equal(forked, fresh) {
					t.Errorf("%s/%s/workers=%d: forked and fresh campaigns differ:\nforked: %s\nfresh:  %s",
						attack, name, workers, forked, fresh)
				}
			}
		}
	}
	// The comparison must have covered corrupted points and ASID text.
	if quarantined == 0 || asidErrs == 0 {
		t.Fatalf("no coverage: %d quarantined points, %d errors naming an ASID", quarantined, asidErrs)
	}
}
