package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory. A span is recorded by the
// benchmark around a call into one layer: its name, start, end and parent,
// plus the operation (campaign or request) it belongs to. Nothing inside the
// program is instrumented; tracing inside the program is a separate change.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	// paused drops new spans while the benchmark takes direct measurements
	// after the window.
	paused bool
	// byKey maps a campaign's content address to its request span, so calls
	// the server makes on that campaign's behalf (dispatch, worker, disk)
	// nest under the request that caused them.
	byKey map[string]int
}

// span is one recorded interval. parent is the index of the enclosing span,
// -1 for a root. op is the operation index + 1, 0 when the span is not tied
// to one. end < 0 marks a span still open.
type span struct {
	name       string
	parent, op int
	tid        int
	start, end time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), byKey: make(map[string]int)}
}

// reset drops everything recorded so far (the set-up's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	t.origin = time.Now()
	t.spans = nil
	t.byKey = make(map[string]int)
	t.mu.Unlock()
}

func (t *tracer) pause()  { t.setPaused(true) }
func (t *tracer) resume() { t.setPaused(false) }

func (t *tracer) setPaused(p bool) {
	t.mu.Lock()
	t.paused = p
	t.mu.Unlock()
}

// root opens a span for operation op issued by client tid. Like begin, it
// returns -1 while paused.
func (t *tracer) root(name string, op, tid int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.paused {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: -1, op: op + 1, tid: tid, start: time.Since(t.origin), end: -1})
	return len(t.spans) - 1
}

// begin opens a child of parent; a negative parent opens an unattributed
// root on the background track.
func (t *tracer) begin(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.paused {
		return -1
	}
	s := span{name: name, parent: parent, tid: backgroundTID, start: time.Since(t.origin), end: -1}
	if parent >= 0 && parent < len(t.spans) {
		s.op, s.tid = t.spans[parent].op, t.spans[parent].tid
	} else {
		s.parent = -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	t.mu.Lock()
	if id >= 0 && id < len(t.spans) {
		t.spans[id].end = time.Since(t.origin)
	}
	t.mu.Unlock()
}

// bindKey ties a campaign key to the request span that submitted it.
func (t *tracer) bindKey(key string, id int) {
	t.mu.Lock()
	t.byKey[key] = id
	t.mu.Unlock()
}

// keySpan returns the request span bound to key, or -1.
func (t *tracer) keySpan(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byKey[key]; ok {
		return id
	}
	return -1
}

// backgroundTID is the Chrome-trace track of spans no request owns, such as
// heartbeats or directory syncs.
const backgroundTID = 99

// layerStat aggregates the closed spans of one name.
type layerStat struct {
	name, parent string
	count        int
	total, self  time.Duration
	parentTotal  time.Duration
}

// share is the layer's time as a fraction of its parent layer's time.
func (l layerStat) share() float64 {
	if l.parentTotal <= 0 {
		return 0
	}
	return float64(l.total) / float64(l.parentTotal)
}

// layers computes each span name's count, total time and self time — its
// duration minus the part of it that its children cover — keyed by name.
func (t *tracer) layers() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]*layerStat)
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		l, ok := out[s.name]
		if !ok {
			l = &layerStat{name: s.name, parent: parent}
			out[s.name] = l
		}
		dur := s.end - s.start
		l.count++
		l.total += dur
		l.self += dur - covered(t.spans, children[i], s.start, s.end)
	}
	for _, l := range out {
		if p, ok := out[l.parent]; ok {
			l.parentTotal = p.total
		}
	}
	return out
}

// countUnder counts the closed spans named name whose root span is named
// root.
func (t *tracer) countUnder(name, root string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.name != name || s.end < 0 {
			continue
		}
		r := s
		for r.parent >= 0 {
			r = t.spans[r.parent]
		}
		if r.name == root {
			n++
		}
	}
	return n
}

// covered is the length of the union of the closed child intervals, clipped
// to [from, to]. Children can overlap, as a hedged dispatch does.
func covered(spans []span, kids []int, from, to time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		if c.end < 0 {
			continue
		}
		a, b := max(c.start, from), min(c.end, to)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a > cur.b:
			sum += cur.b - cur.a
			cur = v
		case v.b > cur.b:
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b - cur.a
	}
	return sum
}

// printLayers writes each layer's self time and its share of its parent.
func printLayers(w io.Writer, ls map[string]*layerStat) {
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-24s %-18s %8s %12s %12s %10s\n", "layer", "parent", "count", "total_ms", "self_ms", "of_parent")
	for _, n := range names {
		l := ls[n]
		fmt.Fprintf(w, "  %-24s %-18s %8d %12.1f %12.1f %10.3f\n", n, l.parent, l.count,
			ms(l.total), ms(l.self), l.share())
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// chromeEvent is one Chrome trace-event record. Spans become complete ("X")
// events; the track names are metadata ("M") events.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome renders the closed spans as Chrome trace-event JSON (one
// track per client plus the background track), loadable in Perfetto.
func (t *tracer) writeChrome(w io.Writer, process string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	tids := map[int]bool{}
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		if !tids[s.tid] {
			tids[s.tid] = true
			track := fmt.Sprintf("client %d", s.tid)
			if s.tid == backgroundTID {
				track = "background"
			}
			evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.tid, Args: map[string]any{"name": track}})
		}
		args := map[string]any{"op": s.op}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
