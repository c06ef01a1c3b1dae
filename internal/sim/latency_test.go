package sim

import (
	"reflect"
	"testing"

	"afterimage/internal/mem"
	"afterimage/internal/telemetry"
)

// loadLatency reads the machine's mem.load.latency histogram from its
// registry.
func loadLatency(t *testing.T, m *Machine) telemetry.HistogramSnapshot {
	t.Helper()
	s, ok := m.Telemetry().Registry().Snapshot().Histograms["mem.load.latency"]
	if !ok {
		t.Fatal("registry has no mem.load.latency histogram")
	}
	return s
}

// TestLoadLatencyHistogramMatchesTelemetryHistogram: the machine counts
// load latencies in plain fields, and its registry must report exactly the
// snapshot a telemetry.Histogram with the same bounds reports for the same
// latencies: those of real loads (L1 hits through DRAM misses with page
// walks), then every value from 0 to past the last bound, so each bucket
// edge is hit. A boot or a copy starts the histogram at zero.
func TestLoadLatencyHistogramMatchesTelemetryHistogram(t *testing.T) {
	m := NewMachine(CoffeeLake(1))
	bounds := loadLatency(t, m).Bounds
	if len(bounds) != 5 {
		t.Fatalf("bounds %v, want 5", bounds)
	}
	ref := telemetry.NewRegistry()
	h := ref.Histogram("ref", bounds)

	env := m.Direct(m.NewProcess("p"))
	buf := env.Mmap(64*mem.PageSize, mem.MapLocked)
	for i := 0; i < 4000; i++ {
		off := mem.VAddr(i*7%(64*64)) * mem.LineSize
		h.Observe(env.Load(0x400000+uint64(i%5)*0x40, buf.Base+off))
	}
	for v := uint64(0); v <= bounds[len(bounds)-1]+3; v++ {
		m.observeLatency(v)
		h.Observe(v)
	}
	got, want := loadLatency(t, m), ref.Snapshot().Histograms["ref"]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("machine histogram %+v\ntelemetry.Histogram %+v", got, want)
	}
	for i, c := range got.Counts {
		if c == 0 {
			t.Errorf("bucket %d never counted: the test does not reach every bucket", i)
		}
	}

	empty := telemetry.HistogramSnapshot{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
	if f := loadLatency(t, m.MustFork()); !reflect.DeepEqual(f, empty) {
		t.Fatalf("fork's histogram %+v, want empty", f)
	}
	if err := m.Boot(m.Cfg); err != nil {
		t.Fatal(err)
	}
	if b := loadLatency(t, m); !reflect.DeepEqual(b, empty) {
		t.Fatalf("booted machine's histogram %+v, want empty", b)
	}
}
