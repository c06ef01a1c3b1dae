package afterimage

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"afterimage/internal/faults"
	"afterimage/internal/telemetry"
)

// TestSnapshotMatchesLegacyStats pins the registry as the one read path for
// the component counters the deleted per-component Stats() accessors used
// to return: every cache, TLB, IP-stride and scheduler name is registered,
// and after a Variant-1 run the counters the attack drives are non-zero.
func TestSnapshotMatchesLegacyStats(t *testing.T) {
	lab := NewLab(Options{Seed: 3, Quiet: true})
	res := lab.RunVariant1(V1Options{Bits: 16})
	if len(res.Secret) != 16 {
		t.Fatalf("run produced %d bits, want 16", len(res.Secret))
	}

	snap := lab.MetricsSnapshot()
	var names []string
	for _, level := range []string{"cache.l1", "cache.l2", "cache.llc"} {
		for _, c := range []string{"hits", "misses", "prefetch_fills", "useful_prefetches"} {
			names = append(names, level+"."+c)
		}
	}
	names = append(names, "tlb.hits", "tlb.misses", "tlb.stlb_hits")
	for _, c := range []string{"lookups", "trains", "allocs", "evictions", "prefetches", "page_drops", "tlb_skips", "flushes"} {
		names = append(names, "prefetcher.ipstride."+c)
	}
	names = append(names, "sched.switches", "sched.syscalls")
	for _, name := range names {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("snapshot is missing %s", name)
		}
	}
	if hits, _ := snap.Get("cache.l1.hits"); hits == 0 {
		t.Error("cache.l1.hits is zero after a 16-bit Variant-1 run")
	}
	if trains, _ := snap.Get("prefetcher.ipstride.trains"); trains == 0 {
		t.Error("prefetcher.ipstride.trains is zero after a run that trains the table")
	}
}

// TestPhaseSummariesAfterVariant1 checks the attack loops mark the paper's
// train/trigger/probe/decode protocol and that span accounting works without
// tracing enabled.
func TestPhaseSummariesAfterVariant1(t *testing.T) {
	lab := NewLab(Options{Seed: 1, Quiet: true})
	lab.RunVariant1(V1Options{Bits: 8})
	phases := lab.PhaseSummaries()
	got := map[string]PhaseSummary{}
	for _, p := range phases {
		got[p.Name] = p
	}
	for _, name := range []string{"train", "trigger", "probe", "decode"} {
		p, ok := got[name]
		if !ok {
			t.Fatalf("phase %q missing from summaries %v", name, phases)
		}
		if p.Spans < 8 {
			t.Errorf("phase %q: %d spans, want >= one per bit (8)", name, p.Spans)
		}
		if p.Cycles == 0 && name != "decode" {
			t.Errorf("phase %q: zero cycles attributed", name)
		}
	}
}

// tracedEvents runs a fault-perturbed Variant-1 attack with tracing on and
// returns the retained event stream.
func tracedEvents(t *testing.T, capacity int) ([]telemetry.Event, *Lab) {
	t.Helper()
	lab := NewLab(Options{Seed: 11, Quiet: true})
	lab.EnableTrace(capacity)
	lab.InjectFaults(faults.Config{Seed: 11, Intensity: 0.5})
	lab.RunVariant1(V1Options{Bits: 8})
	return lab.Machine().Telemetry().Events(), lab
}

// TestTraceDeterministicUnderFaults: identical seeds (machine and fault
// schedule) produce byte-identical event streams — the property every
// trace-diff debugging workflow relies on.
func TestTraceDeterministicUnderFaults(t *testing.T) {
	ev1, _ := tracedEvents(t, 0)
	ev2, _ := tracedEvents(t, 0)
	if len(ev1) == 0 {
		t.Fatal("traced run recorded no events")
	}
	if !reflect.DeepEqual(ev1, ev2) {
		n := len(ev1)
		if len(ev2) < n {
			n = len(ev2)
		}
		for i := 0; i < n; i++ {
			if ev1[i] != ev2[i] {
				t.Fatalf("event %d differs: %+v vs %+v (lens %d/%d)", i, ev1[i], ev2[i], len(ev1), len(ev2))
			}
		}
		t.Fatalf("event streams differ in length: %d vs %d", len(ev1), len(ev2))
	}
	var faultsSeen int
	for _, ev := range ev1 {
		if ev.Kind == telemetry.EvFaultInject {
			faultsSeen++
		}
	}
	if faultsSeen == 0 {
		t.Error("intensity-0.5 run recorded no fault-inject events")
	}
}

// TestTraceRingWraparoundLive drives a real run through a tiny ring: the
// newest events are retained, the drop count is exact, and retained cycles
// stay non-decreasing across the wrap.
func TestTraceRingWraparoundLive(t *testing.T) {
	const capacity = 64
	events, lab := tracedEvents(t, capacity)
	full, _ := tracedEvents(t, 0)
	if len(full) <= capacity {
		t.Fatalf("run produced only %d events; wraparound never exercised", len(full))
	}
	if len(events) != capacity {
		t.Fatalf("ring retained %d events, want %d", len(events), capacity)
	}
	if d := lab.TraceDropped(); d != uint64(len(full)-capacity) {
		t.Errorf("dropped = %d, want %d (total %d - cap %d)", d, len(full)-capacity, len(full), capacity)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("cycle went backwards at %d: %d -> %d", i, events[i-1].Cycle, events[i].Cycle)
		}
	}
	if !reflect.DeepEqual(events, full[len(full)-capacity:]) {
		t.Error("small ring does not retain the newest events of the full stream")
	}
}

// TestWriteTraceExportsValidChromeTrace round-trips a real run through the
// exporter and the schema validator (the same check CI applies to the
// uploaded artifact).
func TestWriteTraceExportsValidChromeTrace(t *testing.T) {
	lab := NewLab(Options{Seed: 5, Quiet: true})
	lab.EnableTrace(0)
	lab.RunVariant1(V1Options{Bits: 8})

	var buf bytes.Buffer
	if err := lab.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	raw := buf.String()
	n, err := telemetry.ValidateChromeTrace(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	if n == 0 {
		t.Fatal("exported trace holds no events")
	}
	for _, want := range []string{`"train"`, `"probe"`, `"pt-insert"`, `"prefetch-issue"`, "thread_name"} {
		if !strings.Contains(raw, want) {
			t.Errorf("exported trace is missing %s", want)
		}
	}
}

// TestWriteTraceRequiresEnable: exporting without EnableTrace is an error,
// not an empty file.
func TestWriteTraceRequiresEnable(t *testing.T) {
	lab := NewLab(Options{Seed: 1, Quiet: true})
	lab.RunVariant1(V1Options{Bits: 2})
	if err := lab.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTrace succeeded with tracing never enabled")
	}
}
