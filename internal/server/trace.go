package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"afterimage"
	"afterimage/internal/cluster"
	"afterimage/internal/obslog"
	"afterimage/internal/store"
	"afterimage/internal/telemetry"
)

// HeaderCampaignID carries the campaign correlation ID. A client that sets
// it on POST /v1/campaigns gets its own ID threaded through every layer —
// admission, store, runner, simulator phases — and back out in the span log;
// a request without one gets a server-minted ID, echoed on the response so
// the client can still follow its campaign.
const HeaderCampaignID = "X-Campaign-Id"

// maxCorrelationLen bounds client-supplied correlation IDs.
const maxCorrelationLen = 128

// validCorrelation accepts 1..128 chars of [a-zA-Z0-9._-] — safe in log
// lines, JSON, and trace filenames alike.
func validCorrelation(s string) bool {
	if len(s) == 0 || len(s) > maxCorrelationLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// requestCorrelation extracts the client's correlation ID or mints one.
// A malformed header is treated as absent rather than rejected: correlation
// is observability plumbing and must never fail a campaign.
func requestCorrelation(r *http.Request) string {
	if id := r.Header.Get(HeaderCampaignID); validCorrelation(id) {
		return id
	}
	return mintCorrelation()
}

// mintCorrelation generates a fresh server-side correlation ID.
func mintCorrelation() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here a
		// constant fallback still yields a usable (if shared) ID.
		return "corr-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// traceStore retains the span record of recently completed campaigns for
// GET /v1/campaigns/{key}/trace, bounded FIFO so an unbounded campaign
// stream cannot grow server memory.
type traceStore struct {
	mu    sync.Mutex
	max   int
	recs  map[string]telemetry.SpanRecord
	order []string // insertion order, for eviction
}

func newTraceStore(max int) *traceStore {
	if max <= 0 {
		max = 256
	}
	return &traceStore{max: max, recs: make(map[string]telemetry.SpanRecord)}
}

// put records (or replaces) the trace for one campaign key.
func (t *traceStore) put(rec telemetry.SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.recs[rec.Key]; !ok {
		t.order = append(t.order, rec.Key)
		for len(t.order) > t.max {
			delete(t.recs, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.recs[rec.Key] = rec
}

// get fetches the retained trace for a campaign key.
func (t *traceStore) get(key string) (telemetry.SpanRecord, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.recs[key]
	return rec, ok
}

// buildCampaignSpans derives the campaign's span tree from its completed
// SweepResult. Every input here is deterministic — the spec, the content
// address, the result curve, and the caller's correlation ID — so the tree
// (and its JSONL encoding) is byte-stable across worker counts, drains,
// restarts, and resumes, exactly like the result bytes themselves. Span
// durations are simulated cycles; wall time is nondeterministic and lives in
// the registry's latency histograms instead.
//
// Taxonomy (validated by telemetry.ValidateSpanRecord):
//
//	campaign                     tenant/attack/model/seed/bits attrs
//	├── queued       (stage)     admission wait — wall time in
//	├── admitted     (stage)       server.queue.wait.us, not here
//	└── flight       (stage)
//	    └── job[i]   (job)       one per sweep point, cycles = point cycles
//	        └── attempt[k]       retries first (outcome=retried), then the
//	            └── phase        final attempt with its train/trigger/
//	                             probe/decode phase spans
//
// Cluster-dispatched campaigns pass their dispatch attempts, which append
// one more stage recording the failover audit trail:
//
//	└── dispatch     (stage)     only when the campaign went through the pool
//	    └── dispatch[k] (job)    worker/outcome/hedge attrs per attempt —
//	                             which worker ran it and why failovers
//	                             happened
//
// With no dispatch attempts the tree is bit-for-bit the single-process
// tree, so non-cluster traces stay byte-stable.
func buildCampaignSpans(corr, key string, spec CampaignSpec, res afterimage.SweepResult, dispatch []cluster.Attempt) telemetry.SpanRecord {
	root := telemetry.NewSpan("campaign", telemetry.SpanKindCampaign).
		Attr("tenant", spec.Tenant).
		Attr("attack", res.Attack).
		Attr("model", res.Model).
		Attr("seed", strconv.FormatInt(spec.Seed, 10)).
		Attr("bits", strconv.Itoa(spec.Bits))
	root.Child(telemetry.NewSpan("queued", telemetry.SpanKindStage))
	root.Child(telemetry.NewSpan("admitted", telemetry.SpanKindStage))
	flight := root.Child(telemetry.NewSpan("flight", telemetry.SpanKindStage))

	var total uint64
	for i, pt := range res.Points {
		job := flight.Child(telemetry.NewSpan(fmt.Sprintf("job[%d]", i), telemetry.SpanKindJob).
			Attr("intensity", strconv.FormatFloat(pt.Intensity, 'g', -1, 64)))
		job.Cycles = pt.Cycles
		total += pt.Cycles

		attempts := pt.Attempts
		if attempts <= 0 {
			attempts = 1
		}
		for k := 0; k < attempts-1; k++ {
			job.Child(telemetry.NewSpan(fmt.Sprintf("attempt[%d]", k), telemetry.SpanKindAttempt).
				Attr("outcome", "retried"))
		}
		final := job.Child(telemetry.NewSpan(fmt.Sprintf("attempt[%d]", attempts-1), telemetry.SpanKindAttempt))
		final.Cycles = pt.Cycles
		if pt.Degraded {
			final.Attr("outcome", "degraded")
		} else {
			final.Attr("outcome", "ok")
		}
		if pt.FaultKind != "" {
			final.Attr("fault_kind", pt.FaultKind)
		}
		if pt.Quarantined {
			final.Attr("quarantined", "true")
		}
		for _, ph := range pt.Phases {
			final.Child(&telemetry.Span{Name: ph.Name, Kind: telemetry.SpanKindPhase, Cycles: ph.Cycles})
		}
	}
	if len(dispatch) > 0 {
		stage := root.Child(telemetry.NewSpan("dispatch", telemetry.SpanKindStage))
		for k, a := range dispatch {
			sp := stage.Child(telemetry.NewSpan(fmt.Sprintf("dispatch[%d]", k), telemetry.SpanKindJob).
				Attr("worker", a.Worker).
				Attr("outcome", a.Outcome))
			if a.Hedge {
				sp.Attr("hedge", "true")
			}
			if a.Err != "" {
				sp.Attr("err", a.Err)
			}
		}
	}
	root.Cycles = total
	return telemetry.NewSpanRecord(corr, key, root)
}

// handleTrace serves a completed campaign's span tree: the JSONL span record
// by default, or — with ?format=chrome — a Chrome trace_event file that
// opens in chrome://tracing and Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed campaign key"})
		return
	}
	rec, ok := s.traces.get(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": "no trace retained for campaign (not completed here, or evicted)",
		})
		return
	}
	w.Header().Set(HeaderKey, key)
	w.Header().Set(HeaderCampaignID, rec.CorrelationID)
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := telemetry.WriteSpanChromeTrace(w, rec); err != nil {
			obslog.Ctx(s.log, r.Context()).Error("trace export failed", "key", key, "err", err)
		}
		return
	}
	line, err := rec.MarshalLine()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "encode trace: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(line)
}

// appendSpanLog writes one record to the configured span log (JSONL),
// serialised so concurrent campaign completions never tear lines.
func (s *Server) appendSpanLog(rec telemetry.SpanRecord) {
	if s.cfg.SpanLog == nil {
		return
	}
	line, err := rec.MarshalLine()
	if err != nil {
		return
	}
	s.spanLogMu.Lock()
	s.cfg.SpanLog.Write(line)
	s.spanLogMu.Unlock()
}
