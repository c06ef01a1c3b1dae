package afterimage

// Differential harness for the zero-alloc hot-path overhaul: the flattened
// cache/TLB/prefetcher/page-table implementations must be observationally
// indistinguishable from the seed implementations. The goldens in
// testdata/hotpath_golden.json were recorded BEFORE the hot path was
// rewritten, so every digest here is a seed-path digest; the optimized path
// must reproduce each one bit-for-bit. Three layers of coverage:
//
//   - every Table 3 experiment's final full-machine state hash,
//   - every point of a fault-sweep campaign (scheduler, noise, perturbation
//     and audit paths all exercised),
//   - randomized direct-env access traces (loads, flushes, fences, TLB
//     pressure, cross-process aliasing) over several seeds.
//
// Regenerate with: AFTERIMAGE_UPDATE_GOLDEN=1 go test -run TestHotPathDifferential
// — but note that overwriting the goldens discards the seed-path reference;
// only do so for an intentional, reviewed simulator-semantics change.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"afterimage/internal/mem"
	"afterimage/internal/sim"
)

const hotpathGoldenPath = "testdata/hotpath_golden.json"

// hotpathGolden is the recorded seed-path digest set. Digests are hex
// strings so the JSON is diffable and safe across tooling that mangles
// 64-bit integers.
type hotpathGolden struct {
	Schema string            `json:"schema"`
	Table3 map[string]string `json:"table3"`
	Sweep  []string          `json:"sweep"`
	Traces map[string]string `json:"traces"`
}

func hexDigest(h uint64) string { return fmt.Sprintf("%#016x", h) }

func updateGolden() bool { return os.Getenv("AFTERIMAGE_UPDATE_GOLDEN") != "" }

func loadHotpathGolden(t *testing.T) *hotpathGolden {
	t.Helper()
	raw, err := os.ReadFile(hotpathGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with AFTERIMAGE_UPDATE_GOLDEN=1): %v", err)
	}
	var g hotpathGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	return &g
}

func writeHotpathGolden(t *testing.T, mutate func(g *hotpathGolden)) {
	t.Helper()
	g := &hotpathGolden{Schema: "afterimage/hotpath-golden/1",
		Table3: map[string]string{}, Traces: map[string]string{}}
	if raw, err := os.ReadFile(hotpathGoldenPath); err == nil {
		_ = json.Unmarshal(raw, g)
	}
	mutate(g)
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hotpathGoldenPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// hotpathReportOptions keeps the Table 3 leg fast enough for every CI run
// while still driving each attack through its full train/trigger/probe
// machinery.
func hotpathReportOptions() ReportOptions {
	return ReportOptions{Seed: 1, Rounds: 12}
}

// TestHotPathDifferentialTable3 re-runs every Table 3 experiment and
// compares its final full-machine state hash against the seed-path digest.
// A single flipped replacement bit, stray counter increment or reordered
// prefetch anywhere in the memory subsystem changes the digest.
func TestHotPathDifferentialTable3(t *testing.T) {
	opts := hotpathReportOptions()
	got := map[string]string{}
	for i, spec := range table3Specs(opts) {
		val, err := runTable3Spec(context.Background(), table3LabOptions(opts, i, spec.key), spec, false)
		if err != nil {
			t.Fatalf("%s: %v", spec.key, err)
		}
		got[spec.key] = hexDigest(val.StateHash)
	}
	if updateGolden() {
		writeHotpathGolden(t, func(g *hotpathGolden) { g.Table3 = got })
		t.Log("updated", hotpathGoldenPath)
		return
	}
	want := loadHotpathGolden(t).Table3
	for key, w := range want {
		if got[key] != w {
			t.Errorf("table3 %s: state hash %s, seed path recorded %s", key, got[key], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("experiment set drifted: %d run, %d recorded", len(got), len(want))
	}
}

// hotpathSweepOptions is the fault-sweep campaign the golden pins: the
// default intensity ladder over the V1 cross-thread attack.
func hotpathSweepOptions() SweepOptions {
	return SweepOptions{
		Attack:      SweepV1Thread,
		Intensities: []float64{0, 0.5, 1, 2, 4},
		Bits:        8,
	}
}

// TestHotPathDifferentialFaultSweep runs one full fault-sweep campaign and
// compares every point's recorded machine hash against the seed path.
func TestHotPathDifferentialFaultSweep(t *testing.T) {
	res := NewLab(Options{Seed: 42, Quiet: true}).RunFaultSweep(hotpathSweepOptions())
	got := make([]string, len(res.Points))
	for i, pt := range res.Points {
		got[i] = hexDigest(pt.StateHash)
	}
	if updateGolden() {
		writeHotpathGolden(t, func(g *hotpathGolden) { g.Sweep = got })
		t.Log("updated", hotpathGoldenPath)
		return
	}
	want := loadHotpathGolden(t).Sweep
	if len(got) != len(want) {
		t.Fatalf("sweep has %d points, seed path recorded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sweep point %d: state hash %s, seed path recorded %s", i, got[i], want[i])
		}
	}
}

// traceRig is one randomized-trace machine with its processes, envs and
// mappings bound: the shared substrate of the hot-path and fork-vs-fresh
// differential suites. The fork differential re-binds the same rig over a
// forked machine (see forkTraceRig in fork_diff_test.go) and replays the
// identical step stream, so the driver below must be the single source of
// the trace semantics.
type traceRig struct {
	m                                 *sim.Machine
	ea, eb                            *sim.Env
	bufA, recl, shared, sharedB, bufB *mem.Mapping
}

// newTraceRig boots a quiet machine with the differential suite's standard
// topology: two processes, locked/reclaimable/shared mappings in A, a
// cross-process alias of the shared mapping in B, and a private buffer in B.
func newTraceRig(seed int64) *traceRig {
	m := sim.NewMachine(sim.Quiet(sim.CoffeeLake(seed)))
	pa := m.NewProcess("a")
	pb := m.NewProcess("b")
	r := &traceRig{m: m, ea: m.Direct(pa), eb: m.Direct(pb)}

	r.bufA = r.ea.Mmap(32*mem.PageSize, mem.MapLocked)
	r.recl = r.ea.Mmap(16*mem.PageSize, mem.MapReclaimable)
	r.shared = r.ea.Mmap(4*mem.PageSize, mem.MapShared)
	r.sharedB = pb.AS.MapExisting(r.shared)
	r.bufB = r.eb.Mmap(8*mem.PageSize, mem.MapLocked)
	return r
}

// run executes steps of the randomized access trace — strided and
// pointer-chase loads under many IPs, cross-process shared mappings,
// reclaimable aliasing, flushes, fences, TLB-thrashing sweeps. Decisions
// draw from the machine's own auxiliary RNG, which Machine.Fork clones at
// its exact stream position, so a run split across a fork consumes the
// same decision stream as an unbroken run.
func (r *traceRig) run(steps int) {
	rng := r.m.Rand()
	for step := 0; step < steps; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // strided loads in A: trains the IP-stride table
			ip := 0x400000 + uint64(rng.Intn(16))*0x40
			stride := int64(rng.Intn(64)-32) * mem.LineSize
			base := r.bufA.Base + mem.VAddr(rng.Intn(24))*mem.PageSize
			v := int64(base) + int64(rng.Intn(32))*mem.LineSize
			for i := 0; i < 4; i++ {
				if v >= int64(r.bufA.Base) && v < int64(r.bufA.End()) {
					r.ea.Load(ip, mem.VAddr(v))
				}
				v += stride
			}
		case 3: // reclaimable-pool loads: page-aliased frames
			r.ea.Load(0x400800, r.recl.Base+mem.VAddr(rng.Intn(16))*mem.PageSize+
				mem.VAddr(rng.Intn(64))*mem.LineSize)
		case 4: // cross-process shared-mapping loads (Flush+Reload substrate)
			off := mem.VAddr(rng.Intn(4)) * mem.PageSize
			r.ea.Load(0x401000, r.shared.Base+off)
			r.eb.Load(0x501000, r.sharedB.Base+off)
		case 5: // B's private loads: TLB/cache capacity contention
			r.eb.Load(0x500000+uint64(rng.Intn(8))*0x40,
				r.bufB.Base+mem.VAddr(rng.Intn(8))*mem.PageSize+
					mem.VAddr(rng.Intn(64))*mem.LineSize)
		case 6: // clflush of a recently plausible line
			r.ea.Flush(r.bufA.Base + mem.VAddr(rng.Intn(32*64))*mem.LineSize)
		case 7: // serialising fence: resets stream detectors
			r.ea.Fence()
		case 8: // timed load: the attacker's measurement path (jitter RNG)
			r.ea.TimeLoad(0x402000, r.bufA.Base+mem.VAddr(rng.Intn(32*64))*mem.LineSize)
		case 9: // TLB-thrashing page sweep
			for i := 0; i < 8; i++ {
				r.ea.Load(0x403000, r.bufA.Base+mem.VAddr(rng.Intn(32))*mem.PageSize)
			}
		}
	}
}

// randomTraceDigest drives one machine through the full randomized trace
// and returns the final full-state hash. Everything derives from the seed,
// so the digest is a pure function of it.
func randomTraceDigest(seed int64) uint64 {
	r := newTraceRig(seed)
	r.run(4000)
	return r.m.StateHash()
}

// TestHotPathDifferentialRandomTraces replays randomized load traces over
// several seeds and compares each final machine digest with the seed path.
func TestHotPathDifferentialRandomTraces(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 99}
	got := map[string]string{}
	for _, s := range seeds {
		got[fmt.Sprint(s)] = hexDigest(randomTraceDigest(s))
	}
	if updateGolden() {
		writeHotpathGolden(t, func(g *hotpathGolden) { g.Traces = got })
		t.Log("updated", hotpathGoldenPath)
		return
	}
	want := loadHotpathGolden(t).Traces
	for s, w := range want {
		if got[s] != w {
			t.Errorf("trace seed %s: state hash %s, seed path recorded %s", s, got[s], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("trace seed set drifted: %d run, %d recorded", len(got), len(want))
	}
}
