package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is the namespaced metric store. Components either create owned
// metrics (Counter/Gauge/Histogram, get-or-create by name) or register a
// pull-sampler over an existing component-local counter (RegisterFunc) —
// the sampler path keeps the simulator's hot loops free of any extra write
// while still exposing every component counter under one namespace
// (cache.l1.hits, prefetcher.ipstride.trains, sched.switches, ...).
type Registry struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	funcs     map[string]func() uint64
	histFuncs map[string]func() HistogramSnapshot
}

// ValidSegment reports whether s is safe as one segment of a dotted metric
// name: 1..64 characters of [a-zA-Z0-9_-]. Server tenants and cluster
// worker IDs both become such segments.
func ValidSegment(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		funcs:     make(map[string]func() uint64),
		histFuncs: make(map[string]func() HistogramSnapshot),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// RegisterFunc installs a pull-sampler: the function is invoked at snapshot
// time and its value reported under the given name. Registering a name twice
// replaces the sampler (a rebuilt component re-registers cleanly).
func (r *Registry) RegisterFunc(name string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// RegisterHistogramFunc installs a histogram pull-sampler: fn is invoked at
// snapshot time and its snapshot reported under name, beside the owned
// histograms. A component whose histogram only its own goroutine writes
// keeps plain counts and exposes them this way instead of paying
// Histogram's atomic adds. Registering a name twice replaces the sampler.
func (r *Registry) RegisterHistogramFunc(name string, fn func() HistogramSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.histFuncs[name] = fn
}

// Snapshot is a point-in-time copy of every registered metric. Sampled
// (RegisterFunc) and owned counters share the Counters namespace.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric. Samplers run on the calling goroutine, so
// take snapshots between runs (the simulator's strict-handoff scheduler makes
// any quiescent point safe).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)+len(r.funcs)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)+len(r.histFuncs)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, fn := range r.funcs {
		s.Counters[name] = fn()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	for name, fn := range r.histFuncs {
		s.Histograms[name] = fn()
	}
	return s
}

// Get reads one counter (owned or sampled) from the snapshot.
func (s Snapshot) Get(name string) (uint64, bool) {
	v, ok := s.Counters[name]
	return v, ok
}

// String renders the snapshot as sorted "name value" lines, histograms last.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-40s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-40s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-40s %s\n", n, s.Histograms[n])
	}
	return b.String()
}
