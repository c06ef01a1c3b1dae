package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the content type of the text exposition format
// this package writes, suitable for HTTP content negotiation.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promPrefix namespaces every exported family so a shared Prometheus server
// can tell this service's metrics from everyone else's.
const promPrefix = "afterimage_"

// tenantCounterPrefix marks the per-tenant counters the registry stores as
// dotted names ("server.tenant.<tenant>.<rest>"); the exposition re-encodes
// the tenant segment as a proper label so dashboards can aggregate across
// tenants instead of pattern-matching metric names.
const tenantCounterPrefix = "server.tenant."

// promHelp curates HELP text for the operationally important families — the
// durability and resilience counters an operator alerts on. Every name here
// is the dotted registry spelling; anything absent falls back to the generic
// "Counter <name>." / "Gauge <name>." / "Histogram <name>." help.
var promHelp = map[string]string{
	"store.corrupt":              "Store reads that failed content verification and were quarantined.",
	"store.recovery.quarantined": "Torn or corrupt store files quarantined by the startup recovery scan.",
	"store.recovery.entries":     "Valid entries indexed by the startup recovery scan.",
	"runner.checkpoint.writes":   "Durable runner checkpoint writes, each carrying every completed point not yet durable: an atomic first write per run, then one fsynced append per later write.",
	"runner.checkpoint.us":       "Wall time of each durable runner checkpoint write in microseconds, first writes and appends alike.",
	"runner.checkpoint.corrupt":  "Unparseable runner checkpoints quarantined as .corrupt; the campaign recomputed identical results from scratch.",
	"runner.checkpoint.degraded": "Campaigns that lost checkpointing to a disk fault and ran to completion without resume protection.",
	"store.degraded.writes":      "Result-cache writes shed by a disk fault or open write-health breaker; the campaign was served uncached.",
	"store.breaker.opened":       "Store write-health breaker trips: consecutive write failures crossed the threshold, so writes shed without touching the disk until the cooldown probe succeeds.",
	"store.quarantine.failed":    "Corrupt entries that could not be renamed into quarantine and were deleted in place as a fallback.",
	"store.scrub.passes":         "Completed store integrity-scrub passes (background cadence or POST /v1/store/scrub).",
	"store.scrub.corrupt":        "Entries a scrub pass found failing content verification and quarantined before any read hit them.",
	"store.gc.evictions":         "Entries evicted oldest-first to hold the store under its size budget.",
	"store.gc.bytes_reclaimed":   "Bytes reclaimed by budget evictions.",
	"server.campaigns.degraded":  "Campaigns served successfully with their result-cache write shed (X-Afterimage-Cache: degraded).",
	"cluster.dispatch.requests":  "Campaign jobs entering cluster dispatch.",
	"cluster.dispatch.worker_ok": "Dispatches completed by a pool worker.",
	"cluster.dispatch.local":     "Dispatches degraded to local in-process execution (no dispatchable worker).",
	"cluster.dispatch.failovers": "Dispatch rounds that failed over to another worker.",
	"cluster.dispatch.hedged":    "Straggler dispatches hedged with a duplicate request.",
	"cluster.workers.evicted":    "Workers evicted for missing heartbeats past the deadline.",
	"cluster.workers.healthy":    "Workers currently passing heartbeat probes.",
	"cluster.breaker.opened":     "Worker circuit breakers tripped open by consecutive dispatch failures.",
}

// helpFor resolves a family's HELP text: curated when known, generic
// otherwise.
func helpFor(kind, name string) string {
	if h, ok := promHelp[name]; ok {
		return h
	}
	return kind + " " + name + "."
}

// promSample is one labelled sample of a family.
type promSample struct {
	labels string // rendered label set, "" or `{tenant="alice"}`
	value  string
}

// promFamily is one exposition family: HELP + TYPE + samples. Histogram
// families carry their snapshot instead of flat samples.
type promFamily struct {
	name    string
	typ     string // counter | gauge | histogram
	help    string
	samples []promSample
	hist    *HistogramSnapshot
}

// promName mangles a dotted registry name into a legal Prometheus metric
// name: every character outside [a-zA-Z0-9_] becomes '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscapeHelp escapes a HELP text (backslash and newline).
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promEscapeLabel escapes a label value (backslash, quote, newline).
func promEscapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// tenantSplit recognises a per-tenant counter name and splits it into the
// tenant and the family suffix ("server.tenant.alice.requests" → "alice",
// "requests").
func tenantSplit(name string) (tenant, rest string, ok bool) {
	if !strings.HasPrefix(name, tenantCounterPrefix) {
		return "", "", false
	}
	tail := name[len(tenantCounterPrefix):]
	i := strings.IndexByte(tail, '.')
	if i <= 0 || i == len(tail)-1 {
		return "", "", false
	}
	return tail[:i], tail[i+1:], true
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): every family gets `# HELP` and `# TYPE` lines,
// counters gain the conventional `_total` suffix, histograms expand into
// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`, and the
// per-tenant counters collapse into one family with a `tenant` label.
// Output is deterministic: families and label sets are sorted.
func WritePrometheus(w io.Writer, s Snapshot) error {
	fams := make(map[string]*promFamily)
	family := func(name, typ, help string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, typ: typ, help: help}
			fams[name] = f
		}
		return f
	}

	for name, v := range s.Counters {
		val := strconv.FormatUint(v, 10)
		if tenant, rest, ok := tenantSplit(name); ok {
			f := family(promPrefix+"server_tenant_"+promName(rest)+"_total", "counter",
				"Per-tenant counter "+tenantCounterPrefix+"*."+rest+".")
			f.samples = append(f.samples, promSample{
				labels: `{tenant="` + promEscapeLabel(tenant) + `"}`, value: val,
			})
			continue
		}
		f := family(promPrefix+promName(name)+"_total", "counter", helpFor("Counter", name))
		f.samples = append(f.samples, promSample{value: val})
	}
	for name, v := range s.Gauges {
		f := family(promPrefix+promName(name), "gauge", helpFor("Gauge", name))
		f.samples = append(f.samples, promSample{value: strconv.FormatInt(v, 10)})
	}
	for name, h := range s.Histograms {
		h := h
		family(promPrefix+promName(name), "histogram", helpFor("Histogram", name)).hist = &h
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, promEscapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		if f.hist != nil {
			writePromHistogram(bw, f.name, *f.hist)
			continue
		}
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
		for _, sm := range f.samples {
			fmt.Fprintf(bw, "%s%s %s\n", f.name, sm.labels, sm.value)
		}
	}
	return bw.Flush()
}

// writePromHistogram expands one snapshot into the cumulative-bucket
// encoding. The +Inf bucket and _count are both derived from the bucket
// counts, so the exposition is self-consistent even if the snapshot was
// taken mid-observation.
func writePromHistogram(w io.Writer, name string, h HistogramSnapshot) {
	cum := uint64(0)
	for i, b := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, cum)
	}
	if len(h.Counts) > 0 {
		cum += h.Counts[len(h.Counts)-1] // overflow bucket
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// promHistState accumulates one histogram family's series while validating.
type promHistState struct {
	lastLe    float64
	lastCum   float64
	buckets   int
	infBucket float64
	hasInf    bool
	count     float64
	hasCount  bool
	hasSum    bool
}

// ValidatePrometheus checks that r holds well-formed Prometheus text
// exposition (version 0.0.4) as this package emits it: legal metric and
// label names, a `# TYPE` line preceding each family's samples, parseable
// float values, and — for histogram families — cumulative non-decreasing
// `_bucket` counts in increasing `le` order with a `+Inf` bucket equal to
// `_count`. It returns the number of samples on success.
func ValidatePrometheus(r io.Reader) (int, error) {
	types := make(map[string]string)
	hists := make(map[string]*promHistState) // keyed by family + non-le labels
	samples := 0

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return 0, fmt.Errorf("prom: line %d: malformed comment %q", lineNo, line)
			}
			if !validPromName(fields[2]) {
				return 0, fmt.Errorf("prom: line %d: illegal metric name %q", lineNo, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return 0, fmt.Errorf("prom: line %d: TYPE without a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return 0, fmt.Errorf("prom: line %d: unknown type %q", lineNo, fields[3])
				}
				if _, dup := types[fields[2]]; dup {
					return 0, fmt.Errorf("prom: line %d: duplicate TYPE for %s", lineNo, fields[2])
				}
				types[fields[2]] = fields[3]
			}
			continue
		}

		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return 0, fmt.Errorf("prom: line %d: %w", lineNo, err)
		}
		samples++

		family, component := name, ""
		if typ, ok := types[name]; ok && typ != "histogram" {
			// plain counter/gauge sample; nothing more to track
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				family, component = strings.TrimSuffix(name, suffix), suffix
				break
			}
		}
		typ, declared := types[family]
		if !declared {
			return 0, fmt.Errorf("prom: line %d: sample %s before any TYPE for %s", lineNo, name, family)
		}
		if typ != "histogram" {
			// e.g. a counter that happens to end in _count — allowed.
			continue
		}
		if component == "" {
			return 0, fmt.Errorf("prom: line %d: bare sample %s of histogram family %s", lineNo, name, family)
		}
		le, rest := extractLe(labels)
		key := family + "|" + rest
		st, ok := hists[key]
		if !ok {
			st = &promHistState{lastLe: -1}
			hists[key] = st
		}
		switch component {
		case "_bucket":
			if le == "" {
				return 0, fmt.Errorf("prom: line %d: histogram bucket of %s without an le label", lineNo, family)
			}
			if le == "+Inf" {
				st.hasInf, st.infBucket = true, value
				if value < st.lastCum {
					return 0, fmt.Errorf("prom: line %d: %s +Inf bucket %v below prior bucket %v", lineNo, family, value, st.lastCum)
				}
				break
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return 0, fmt.Errorf("prom: line %d: bad le %q: %v", lineNo, le, err)
			}
			if st.hasInf {
				return 0, fmt.Errorf("prom: line %d: %s bucket after +Inf", lineNo, family)
			}
			if st.buckets > 0 && bound <= st.lastLe {
				return 0, fmt.Errorf("prom: line %d: %s buckets out of order (le %v after %v)", lineNo, family, bound, st.lastLe)
			}
			if value < st.lastCum {
				return 0, fmt.Errorf("prom: line %d: %s bucket counts not cumulative (%v after %v)", lineNo, family, value, st.lastCum)
			}
			st.lastLe, st.lastCum = bound, value
			st.buckets++
		case "_sum":
			st.hasSum = true
		case "_count":
			st.hasCount, st.count = true, value
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("prom: read: %w", err)
	}
	for key, st := range hists {
		family := key[:strings.IndexByte(key, '|')]
		if !st.hasInf {
			return 0, fmt.Errorf("prom: histogram %s has no +Inf bucket", family)
		}
		if !st.hasSum || !st.hasCount {
			return 0, fmt.Errorf("prom: histogram %s missing _sum or _count", family)
		}
		if st.infBucket != st.count {
			return 0, fmt.Errorf("prom: histogram %s +Inf bucket %v != _count %v", family, st.infBucket, st.count)
		}
	}
	return samples, nil
}

// parsePromSample splits one sample line into name, raw label block, value.
func parsePromSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced label braces in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", 0, fmt.Errorf("sample %q has no value", line)
		}
		name = fields[0]
		rest = fields[1]
	}
	if !validPromName(name) {
		return "", "", 0, fmt.Errorf("illegal metric name %q", name)
	}
	if labels != "" {
		for _, pair := range splitPromLabels(labels) {
			eq := strings.IndexByte(pair, '=')
			if eq <= 0 {
				return "", "", 0, fmt.Errorf("malformed label %q", pair)
			}
			if !validPromName(pair[:eq]) {
				return "", "", 0, fmt.Errorf("illegal label name %q", pair[:eq])
			}
			v := pair[eq+1:]
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", "", 0, fmt.Errorf("unquoted label value in %q", pair)
			}
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", 0, fmt.Errorf("sample %q has no value", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad sample value %q: %v", fields[0], err)
	}
	return name, labels, value, nil
}

// splitPromLabels splits a raw label block on commas outside quotes.
func splitPromLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		out = append(out, tail)
	}
	return out
}

// extractLe pulls the le label out of a raw label block, returning its value
// and the remaining labels (normalised, for series grouping).
func extractLe(labels string) (le, rest string) {
	var others []string
	for _, pair := range splitPromLabels(labels) {
		if strings.HasPrefix(pair, "le=") {
			le = strings.Trim(pair[len("le="):], `"`)
			continue
		}
		others = append(others, pair)
	}
	sort.Strings(others)
	return le, strings.Join(others, ",")
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
