// Package telemetry is the unified observability layer of the AfterImage
// simulator: a namespaced metrics registry (cheap atomic counters, gauges and
// fixed-bucket latency histograms, plus pull-samplers over component-local
// counters), a cycle-stamped event bus backed by a bounded ring buffer that
// grows to its capacity and costs nothing when disabled, attack-phase span
// tracking, and a Chrome trace_event JSON exporter so any run opens in
// chrome://tracing or Perfetto.
//
// Every machine owns one Hub; components register metric samplers at
// construction and emit typed events on their hot paths guarded by
// Hub.TraceEnabled, so an untraced run pays only a nil-and-bool check.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing (but resettable) atomic counter.
// Inc and Add on a nil *Counter do nothing, so a component built without a
// registry keeps nil handles and calls them unguarded.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an atomic signed instantaneous value. Set and Add on a nil
// *Gauge do nothing.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the value by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency histogram: observations are counted
// into the first bucket whose upper bound is >= the value, with one implicit
// overflow bucket. Bounds are fixed at construction, so Observe is a short
// linear scan plus three atomic adds, safe from any goroutine: the shape
// the server's shared histograms need. A histogram only one goroutine
// writes, like a machine's load latencies, keeps plain counts instead and
// registers them with Registry.RegisterHistogramFunc. Observe on a nil
// *Histogram does nothing.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
	sum    atomic.Uint64
	count  atomic.Uint64
}

// NewHistogram builds a histogram from ascending bucket upper bounds.
func NewHistogram(bounds []uint64) *Histogram {
	b := append([]uint64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for ; i < len(h.bounds); i++ {
		if v <= h.bounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"` // len(Bounds)+1, last = overflow
	Sum    uint64   `json:"sum"`
	Count  uint64   `json:"count"`
}

// Mean is the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// String renders the snapshot as one line of bucket counts.
func (s HistogramSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d mean=%.1f", s.Count, s.Mean())
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		switch {
		case i < len(s.Bounds):
			fmt.Fprintf(&b, " ≤%d:%d", s.Bounds[i], c)
		case len(s.Bounds) > 0:
			fmt.Fprintf(&b, " >%d:%d", s.Bounds[len(s.Bounds)-1], c)
		default:
			// A zero-bound histogram has only the overflow bucket; there is
			// no finite bound to render the label against.
			fmt.Fprintf(&b, " all:%d", c)
		}
	}
	return b.String()
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]uint64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
