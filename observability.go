package afterimage

import (
	"fmt"
	"io"

	"afterimage/internal/telemetry"
)

// PhaseSummary re-exports the per-attack-phase aggregate (spans, simulated
// cycles, attributed trace events) for callers that stay outside internal/.
type PhaseSummary = telemetry.PhaseSummary

// MetricsSnapshot re-exports the registry snapshot type.
type MetricsSnapshot = telemetry.Snapshot

// EnableTrace turns on cycle-accurate event recording on the lab's machine
// with the given ring capacity (<=0 selects telemetry.DefaultBusCapacity,
// 256k events). Until called, tracing costs nothing on the simulation's hot
// paths. Once the ring fills, the oldest events are overwritten and counted —
// see TraceDropped.
func (l *Lab) EnableTrace(capacity int) { l.m.Telemetry().EnableTrace(capacity) }

// DisableTrace stops event recording and discards the retained trace.
func (l *Lab) DisableTrace() { l.m.Telemetry().DisableTrace() }

// TraceEnabled reports whether event recording is on.
func (l *Lab) TraceEnabled() bool { return l.m.Telemetry().TraceEnabled() }

// TraceDropped reports how many events the trace ring overwrote (0 when the
// whole run fit, or when tracing is off).
func (l *Lab) TraceDropped() uint64 {
	if b := l.m.Telemetry().Bus(); b != nil {
		return b.Dropped()
	}
	return 0
}

// WriteTrace exports the retained event trace as Chrome trace_event JSON,
// loadable in chrome://tracing and https://ui.perfetto.dev. It fails when
// tracing was never enabled.
func (l *Lab) WriteTrace(w io.Writer) error {
	tel := l.m.Telemetry()
	if !tel.TraceEnabled() {
		return fmt.Errorf("afterimage: tracing not enabled (call Lab.EnableTrace before running)")
	}
	return telemetry.WriteChromeTrace(w, tel.Events(), telemetry.TraceMeta{
		Process: l.m.Cfg.Name,
		GHz:     l.m.Cfg.GHz,
		Dropped: tel.Bus().Dropped(),
	})
}

// MetricsSnapshot captures the machine-wide metrics registry: every cache
// level, the dTLB, all four prefetchers, the scheduler and any installed
// fault engine, under namespaced keys (cache.l1.hits, prefetcher.ipstride.
// trains, sched.switches, faults.injected, ...). Values are sampled live
// from the components' own counters; the registry is the one place to read
// them.
func (l *Lab) MetricsSnapshot() MetricsSnapshot {
	return l.m.Telemetry().Registry().Snapshot()
}

// PhaseSummaries reports the per-phase aggregates (train/trigger/probe/
// decode) accumulated by the attack loops, in order of first appearance.
// Phase accounting is always on; it does not require EnableTrace.
func (l *Lab) PhaseSummaries() []PhaseSummary {
	return l.m.Telemetry().PhaseSummaries()
}
