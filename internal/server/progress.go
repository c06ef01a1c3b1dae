package server

import (
	"sync"

	"afterimage"
)

// ProgressEvent is one server-sent progress record for an in-flight
// campaign. The stream for a campaign is: queued → started → point* →
// phases? → (done | error). The phases event carries the result's
// aggregates (SweepResult.PhaseSummaries: the points' train/trigger/probe/
// decode accounting), published when a campaign completes, whether it ran
// locally or on a worker. Point events come only from campaigns run in
// this process.
type ProgressEvent struct {
	// Type is queued | started | point | phases | done | error.
	Type string `json:"type"`
	// Key is the campaign's content address.
	Key string `json:"key"`
	// Completed / Total count checkpointed sweep points (point events).
	Completed int `json:"completed,omitempty"`
	Total     int `json:"total,omitempty"`
	// Cached marks a done event served from the store without execution.
	Cached bool `json:"cached,omitempty"`
	// Phases carries the campaign's per-phase cycle aggregates (phases
	// events).
	Phases []afterimage.PhaseSummary `json:"phases,omitempty"`
	// Err carries the failure (error events).
	Err string `json:"err,omitempty"`
}

// progressHub fans ProgressEvents out to per-campaign subscribers. Publishes
// never block campaign execution: a subscriber whose buffer is full drops
// events (SSE consumers are advisory observers, not a durability channel —
// the checkpoint is).
type progressHub struct {
	mu   sync.Mutex
	subs map[string]map[chan ProgressEvent]struct{}
	last map[string]ProgressEvent // most recent event per active campaign
}

func newProgressHub() *progressHub {
	return &progressHub{
		subs: make(map[string]map[chan ProgressEvent]struct{}),
		last: make(map[string]ProgressEvent),
	}
}

// publish delivers ev to every subscriber of its key (dropping on full
// buffers) and records it as the key's latest state. Terminal events clear
// the latest-state entry — the store is the source of truth afterwards.
func (h *progressHub) publish(ev ProgressEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ev.Type == "done" || ev.Type == "error" {
		delete(h.last, ev.Key)
	} else {
		h.last[ev.Key] = ev
	}
	for ch := range h.subs[ev.Key] {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers a buffered listener for key, first replaying the
// campaign's latest known state so late subscribers are not blind until the
// next event. The returned cancel is idempotent and closes the channel.
func (h *progressHub) subscribe(key string) (<-chan ProgressEvent, func()) {
	ch := make(chan ProgressEvent, 64)
	h.mu.Lock()
	if h.subs[key] == nil {
		h.subs[key] = make(map[chan ProgressEvent]struct{})
	}
	h.subs[key][ch] = struct{}{}
	if last, ok := h.last[key]; ok {
		ch <- last
	}
	h.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.subs[key], ch)
			if len(h.subs[key]) == 0 {
				delete(h.subs, key)
			}
			h.mu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}

// state reports the latest non-terminal event for key, if any — the /status
// answer for an in-flight campaign.
func (h *progressHub) state(key string) (ProgressEvent, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ev, ok := h.last[key]
	return ev, ok
}
