package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestNilMetricsAreInert: a component built without a registry holds nil
// handles, and every update method on them does nothing.
func TestNilMetricsAreInert(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	c.Inc()
	c.Add(3)
	g.Set(4)
	g.Add(-1)
	h.Observe(5)
}

func TestValidSegment(t *testing.T) {
	for s, want := range map[string]bool{
		"alice": true, "worker-1_B": true, strings.Repeat("x", 64): true,
		"": false, strings.Repeat("x", 65): false, "a.b": false, "a b": false, "é": false,
	} {
		if got := ValidSegment(s); got != want {
			t.Errorf("ValidSegment(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter after reset = %d", c.Value())
	}

	var g Gauge
	g.Set(7)
	g.Add(-10)
	if g.Value() != -3 {
		t.Fatalf("gauge = %d, want -3", g.Value())
	}

	h := NewHistogram([]uint64{10, 100})
	for _, v := range []uint64{3, 10, 11, 500} {
		h.Observe(v)
	}
	s := h.snapshot()
	if want := []uint64{2, 1, 1}; !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("buckets = %v, want %v", s.Counts, want)
	}
	if s.Count != 4 || s.Sum != 524 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	if got := s.Mean(); got != 131 {
		t.Fatalf("mean = %v", got)
	}
}

func TestRegistrySnapshotMergesFuncs(t *testing.T) {
	r := NewRegistry()
	r.Counter("owned.hits").Add(3)
	r.Gauge("g").Set(-1)
	r.Histogram("lat", []uint64{10}).Observe(5)
	legacy := uint64(42)
	r.RegisterFunc("sampled.hits", func() uint64 { return legacy })

	s := r.Snapshot()
	if v, _ := s.Get("owned.hits"); v != 3 {
		t.Fatalf("owned.hits = %d", v)
	}
	if v, _ := s.Get("sampled.hits"); v != 42 {
		t.Fatalf("sampled.hits = %d", v)
	}
	legacy = 100
	if v, _ := r.Snapshot().Get("sampled.hits"); v != 100 {
		t.Fatalf("sampler not live: %d", v)
	}
	if !strings.Contains(s.String(), "owned.hits") {
		t.Fatalf("String() missing metric:\n%s", s.String())
	}
	// Get-or-create returns the same instance.
	if r.Counter("owned.hits") != r.Counter("owned.hits") {
		t.Fatal("Counter not idempotent")
	}
}

func TestBusWraparound(t *testing.T) {
	b := NewBus(8)
	for i := 0; i < 20; i++ {
		b.Emit(Event{Cycle: uint64(i), Kind: EvDemandAccess, Arg1: uint64(i)})
	}
	if b.Len() != 8 || b.Cap() != 8 {
		t.Fatalf("len/cap = %d/%d", b.Len(), b.Cap())
	}
	if b.Dropped() != 12 {
		t.Fatalf("dropped = %d, want 12", b.Dropped())
	}
	evs := b.Events()
	for i, ev := range evs {
		if want := uint64(12 + i); ev.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest-first after wrap)", i, ev.Cycle, want)
		}
	}
	b.Reset()
	if b.Len() != 0 || b.Dropped() != 0 {
		t.Fatalf("reset failed: len=%d dropped=%d", b.Len(), b.Dropped())
	}
}

// TestBusGrowsToCapacity: a ring allocates as events arrive, so a short
// trace on a default-capacity bus holds kilobytes, not the ~16 MB of its
// full capacity, and a ring never holds more slots than its capacity.
func TestBusGrowsToCapacity(t *testing.T) {
	b := NewBus(0)
	for i := 0; i < 1000; i++ {
		b.Emit(Event{Cycle: uint64(i)})
	}
	if b.Len() != 1000 || b.Cap() != DefaultBusCapacity {
		t.Fatalf("len/cap = %d/%d", b.Len(), b.Cap())
	}
	if slots := cap(b.buf); slots > 2048 {
		t.Fatalf("1000 events hold %d slots (%d bytes)", slots, slots*int(unsafe.Sizeof(Event{})))
	}
	small := NewBus(100)
	for i := 0; i < 1000; i++ {
		small.Emit(Event{Cycle: uint64(i)})
	}
	if cap(small.buf) != 100 || small.Events()[0].Cycle != 900 {
		t.Fatalf("capacity-100 ring holds %d slots, oldest cycle %d", cap(small.buf), small.Events()[0].Cycle)
	}
}

func TestHubPhases(t *testing.T) {
	h := NewHub()
	clock := uint64(0)
	h.SetClock(func() uint64 { return clock })
	h.EnableTrace(64)

	h.BeginPhase("train")
	clock = 100
	h.Emit(Event{Kind: EvPrefetchIssue})
	// Implicit end: beginning "probe" closes "train" at cycle 100.
	h.BeginPhase("probe")
	clock = 150
	h.EndPhase()
	h.BeginPhase("train")
	clock = 175
	h.EndPhase()
	h.EndPhase() // no active span: no-op

	sums := h.PhaseSummaries()
	if len(sums) != 2 {
		t.Fatalf("summaries = %+v", sums)
	}
	train, probe := sums[0], sums[1]
	if train.Name != "train" || train.Spans != 2 || train.Cycles != 125 {
		t.Fatalf("train = %+v", train)
	}
	if probe.Name != "probe" || probe.Spans != 1 || probe.Cycles != 50 {
		t.Fatalf("probe = %+v", probe)
	}
	if train.Events != 1 {
		t.Fatalf("train.Events = %d, want 1", train.Events)
	}

	// The emitted event carries its phase.
	for _, ev := range h.Events() {
		if ev.Kind == EvPrefetchIssue && ev.Phase != "train" {
			t.Fatalf("issue event phase = %q", ev.Phase)
		}
	}
}

func TestHubDisabledIsCheap(t *testing.T) {
	h := NewHub()
	if h.TraceEnabled() {
		t.Fatal("fresh hub traces")
	}
	allocs := testing.AllocsPerRun(100, func() {
		h.Emit(Event{Kind: EvDemandAccess, Arg1: 1, Arg2: 2})
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %v times", allocs)
	}
	var nilHub *Hub
	if nilHub.TraceEnabled() || nilHub.CurrentPhase() != "" {
		t.Fatal("nil hub misbehaves")
	}
	nilHub.Emit(Event{})
	nilHub.BeginPhase("x")
	nilHub.EndPhase()
}

func TestChromeTraceRoundTrip(t *testing.T) {
	h := NewHub()
	clock := uint64(0)
	h.SetClock(func() uint64 { return clock })
	h.EnableTrace(1024)
	h.BeginPhase("train")
	clock = 10
	h.Emit(Event{Kind: EvPTInsert, Arg1: 3, Arg2: 0xA7})
	clock = 20
	h.Emit(Event{Kind: EvPrefetchIssue, Arg1: 0x1000, Label: "ip-stride"})
	h.BeginPhase("probe")
	clock = 30
	h.Emit(Event{Kind: EvDemandAccess, Arg1: 0, Arg2: 4})
	h.Emit(Event{Kind: EvFaultInject, Arg1: 1, Label: "flush-table"})
	// Leave "probe" open: the exporter must close it.

	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, h.Events(), TraceMeta{Process: "test", GHz: 3.0})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("emitted trace fails validation: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Fatal("no trace events")
	}
	for _, want := range []string{`"pt-insert"`, `"prefetch-issue"`, `"train"`, `"fault-inject"`, `"thread_name"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"no traceEvents": `{"foo": 1}`,
		"bad phase":      `{"traceEvents":[{"name":"x","ph":"Z","ts":1,"pid":1,"tid":1}]}`,
		"no name":        `{"traceEvents":[{"ph":"i","ts":1,"pid":1,"tid":1}]}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"i","ts":-5,"pid":1,"tid":1}]}`,
		"unbalanced B":   `{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":1,"tid":1}]}`,
		"E without B":    `{"traceEvents":[{"name":"x","ph":"E","ts":1,"pid":1,"tid":1}]}`,
	}
	for name, raw := range cases {
		if _, err := ValidateChromeTrace(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	if n, err := ValidateChromeTrace(strings.NewReader(`{"traceEvents":[]}`)); err != nil || n != 0 {
		t.Errorf("empty trace: n=%d err=%v", n, err)
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	h := NewHub()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if h.TraceEnabled() {
			h.Emit(Event{Kind: EvDemandAccess, Arg1: 1, Arg2: 2})
		}
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	h := NewHub()
	h.EnableTrace(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if h.TraceEnabled() {
			h.Emit(Event{Kind: EvDemandAccess, Arg1: 1, Arg2: 2})
		}
	}
}
