package telemetry

// PhaseSummary aggregates one attack phase across all of its spans: how many
// times the phase ran, the simulated cycles spent inside it, and how many
// trace events were attributed to it (0 unless tracing was enabled).
type PhaseSummary struct {
	Name   string `json:"name"`
	Spans  int    `json:"spans"`
	Cycles uint64 `json:"cycles"`
	Events uint64 `json:"events"`
}

// Hub bundles one machine's observability state: the metrics registry, the
// (initially disabled) event bus, and the attack-phase tracker. Phase spans
// are always accounted (they cost a map lookup per transition); event
// recording costs nothing until EnableTrace.
//
// Phases do not nest: beginning a phase implicitly ends the active one, which
// makes interleaved spans from cooperating tasks (attacker trains, yields,
// victim triggers) well-defined — events emitted while the victim holds the
// core attribute to the attacker's still-open phase, which is exactly the
// attribution the train/trigger/probe protocol wants.
type Hub struct {
	reg   *Registry
	bus   *Bus
	clock func() uint64 // cycle source for stamping events and spans

	phase      string // active phase name ("" = none)
	phaseStart uint64
	phaseAgg   *PhaseSummary
	summaries  []*PhaseSummary
	byName     map[string]*PhaseSummary

	// absorbNext is the cycle offset the next AbsorbEvents call starts at,
	// so traces absorbed from several child machines stay disjoint and
	// monotonic on this hub's timeline.
	absorbNext uint64
}

// NewHub builds a hub with a fresh registry, tracing disabled, and a zero
// clock (the owning machine installs the real one via SetClock).
func NewHub() *Hub {
	return &Hub{
		reg:    NewRegistry(),
		clock:  func() uint64 { return 0 },
		byName: make(map[string]*PhaseSummary),
	}
}

// Registry returns the hub's metrics registry.
func (h *Hub) Registry() *Registry { return h.reg }

// SetClock installs the cycle source used to stamp events and phase spans.
func (h *Hub) SetClock(fn func() uint64) { h.clock = fn }

// EnableTrace turns event recording on with the given ring capacity
// (DefaultBusCapacity when non-positive). Calling it again replaces the ring.
func (h *Hub) EnableTrace(capacity int) { h.bus = NewBus(capacity) }

// DisableTrace stops event recording and discards the ring.
func (h *Hub) DisableTrace() { h.bus = nil }

// TraceEnabled reports whether Emit records anything. It is the hot-path
// guard: a nil hub or disabled bus costs two compares and no allocation.
func (h *Hub) TraceEnabled() bool { return h != nil && h.bus != nil }

// Bus exposes the ring (nil while tracing is disabled).
func (h *Hub) Bus() *Bus { return h.bus }

// Events returns the retained trace oldest-first (nil while disabled).
func (h *Hub) Events() []Event {
	if h == nil || h.bus == nil {
		return nil
	}
	return h.bus.Events()
}

// Emit records one event, stamping the current cycle and active phase. It is
// a no-op while tracing is disabled; callers on hot paths should still guard
// with TraceEnabled to avoid constructing the Event at all.
func (h *Hub) Emit(ev Event) {
	if h == nil || h.bus == nil {
		return
	}
	if ev.Cycle == 0 {
		ev.Cycle = h.clock()
	}
	ev.Phase = h.phase
	if h.phaseAgg != nil {
		h.phaseAgg.Events++
	}
	h.bus.Emit(ev)
}

// BeginPhase opens an attack-phase span at the current cycle, implicitly
// ending any active span. Safe (and cheap) whether or not tracing is on.
func (h *Hub) BeginPhase(name string) {
	if h == nil {
		return
	}
	now := h.clock()
	h.endPhaseAt(now)
	agg, ok := h.byName[name]
	if !ok {
		agg = &PhaseSummary{Name: name}
		h.byName[name] = agg
		h.summaries = append(h.summaries, agg)
	}
	h.phase, h.phaseStart, h.phaseAgg = name, now, agg
	if h.bus != nil {
		h.bus.Emit(Event{Cycle: now, Kind: EvPhaseBegin, Phase: name, Label: name})
	}
}

// EndPhase closes the active span (no-op when none is open).
func (h *Hub) EndPhase() {
	if h == nil {
		return
	}
	h.endPhaseAt(h.clock())
}

func (h *Hub) endPhaseAt(now uint64) {
	if h.phaseAgg == nil {
		return
	}
	h.phaseAgg.Spans++
	h.phaseAgg.Cycles += now - h.phaseStart
	if h.bus != nil {
		h.bus.Emit(Event{Cycle: now, Kind: EvPhaseEnd, Phase: h.phase, Label: h.phase})
	}
	h.phase, h.phaseAgg = "", nil
}

// CurrentPhase reports the open span's name ("" when none).
func (h *Hub) CurrentPhase() string {
	if h == nil {
		return ""
	}
	return h.phase
}

// AbsorbSummaries folds phase aggregates measured on another machine (a
// sweep-point lab, or a checkpointed record of one) into this hub's
// accounting, preserving first-appearance order. A campaign driver calls it
// once per completed point, in point order, so the parent lab's
// PhaseSummaries cover the whole campaign deterministically.
func (h *Hub) AbsorbSummaries(sums []PhaseSummary) {
	if h == nil {
		return
	}
	for _, s := range sums {
		agg, ok := h.byName[s.Name]
		if !ok {
			agg = &PhaseSummary{Name: s.Name}
			h.byName[s.Name] = agg
			h.summaries = append(h.summaries, agg)
		}
		agg.Spans += s.Spans
		agg.Cycles += s.Cycles
		agg.Events += s.Events
	}
}

// AbsorbEvents appends another machine's retained trace to this hub's ring,
// shifting cycles so the absorbed span begins after everything recorded or
// absorbed so far (child clocks all start at zero and would otherwise
// interleave). Events keep their phase attribution from the source machine,
// and each one that is not a phase marker counts into its phase here, when
// this hub knows the phase. No-op while tracing is disabled here.
func (h *Hub) AbsorbEvents(events []Event) {
	if h == nil || h.bus == nil || len(events) == 0 {
		return
	}
	base := h.absorbNext
	if now := h.clock(); now > base {
		base = now
	}
	last := events[len(events)-1].Cycle
	for _, ev := range events {
		if agg := h.byName[ev.Phase]; agg != nil && ev.Kind != EvPhaseBegin && ev.Kind != EvPhaseEnd {
			agg.Events++
		}
		ev.Cycle += base
		h.bus.Emit(ev)
	}
	h.absorbNext = base + last + 1
}

// PhaseSummaries returns per-phase aggregates in order of first appearance,
// as copies.
func (h *Hub) PhaseSummaries() []PhaseSummary {
	if h == nil {
		return nil
	}
	out := make([]PhaseSummary, len(h.summaries))
	for i, p := range h.summaries {
		out[i] = *p
	}
	return out
}
