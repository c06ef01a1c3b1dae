package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrometheusHistogramEncoding pins the cumulative-bucket encoding:
// _bucket counts accumulate, the +Inf bucket equals _count, and _sum is the
// raw observation sum. Table-driven over bucket shapes, including the
// zero-bound histogram the String() regression concerns.
func TestPrometheusHistogramEncoding(t *testing.T) {
	cases := []struct {
		name    string
		bounds  []uint64
		observe []uint64
		want    []string // exact sample lines, in order
	}{
		{
			name:    "spread",
			bounds:  []uint64{10, 100, 1000},
			observe: []uint64{5, 7, 50, 99, 500, 5000, 6000},
			want: []string{
				`afterimage_h_bucket{le="10"} 2`,
				`afterimage_h_bucket{le="100"} 4`,
				`afterimage_h_bucket{le="1000"} 5`,
				`afterimage_h_bucket{le="+Inf"} 7`,
				`afterimage_h_sum 11661`,
				`afterimage_h_count 7`,
			},
		},
		{
			name:    "empty",
			bounds:  []uint64{1, 2},
			observe: nil,
			want: []string{
				`afterimage_h_bucket{le="1"} 0`,
				`afterimage_h_bucket{le="2"} 0`,
				`afterimage_h_bucket{le="+Inf"} 0`,
				`afterimage_h_sum 0`,
				`afterimage_h_count 0`,
			},
		},
		{
			name:    "all-overflow",
			bounds:  []uint64{4},
			observe: []uint64{9, 9, 9},
			want: []string{
				`afterimage_h_bucket{le="4"} 0`,
				`afterimage_h_bucket{le="+Inf"} 3`,
				`afterimage_h_sum 27`,
				`afterimage_h_count 3`,
			},
		},
		{
			name:    "zero-bounds",
			bounds:  nil,
			observe: []uint64{3, 4},
			want: []string{
				`afterimage_h_bucket{le="+Inf"} 2`,
				`afterimage_h_sum 7`,
				`afterimage_h_count 2`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			h := reg.Histogram("h", tc.bounds)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			var buf bytes.Buffer
			if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			var got []string
			for _, line := range strings.Split(out, "\n") {
				if line != "" && !strings.HasPrefix(line, "#") {
					got = append(got, line)
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d sample lines, want %d:\n%s", len(got), len(tc.want), out)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Errorf("line %d:\n got %q\nwant %q", i, got[i], tc.want[i])
				}
			}
			if !strings.Contains(out, "# TYPE afterimage_h histogram") {
				t.Errorf("missing TYPE line:\n%s", out)
			}
			if _, err := ValidatePrometheus(strings.NewReader(out)); err != nil {
				t.Errorf("validator rejects own output: %v", err)
			}
		})
	}
}

// TestPrometheusTenantLabels: the dotted per-tenant counters collapse into
// one family with a sorted tenant label, while plain counters keep the
// _total suffix and full mangled name.
func TestPrometheusTenantLabels(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server.tenant.zoe.requests").Add(3)
	reg.Counter("server.tenant.alice.requests").Add(7)
	reg.Counter("server.requests").Add(10)
	reg.Gauge("server.admission.queued").Set(2)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantLines := []string{
		"# TYPE afterimage_server_tenant_requests_total counter",
		`afterimage_server_tenant_requests_total{tenant="alice"} 7`,
		`afterimage_server_tenant_requests_total{tenant="zoe"} 3`,
		"# TYPE afterimage_server_requests_total counter",
		"afterimage_server_requests_total 10",
		"# TYPE afterimage_server_admission_queued gauge",
		"afterimage_server_admission_queued 2",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
	// The two tenants share one family: exactly one TYPE line for it.
	if strings.Count(out, "# TYPE afterimage_server_tenant_requests_total") != 1 {
		t.Errorf("tenant family declared more than once:\n%s", out)
	}
	// alice sorts before zoe.
	if strings.Index(out, `tenant="alice"`) > strings.Index(out, `tenant="zoe"`) {
		t.Errorf("tenant samples not sorted:\n%s", out)
	}
	if _, err := ValidatePrometheus(strings.NewReader(out)); err != nil {
		t.Errorf("validator rejects own output: %v", err)
	}
}

// TestPrometheusCuratedHelp pins the exposition encoding of the curated
// recovery/resilience families: the HELP text an operator's dashboards key
// on must not drift, and names outside the curated map must keep the generic
// fallback. Exact-line regression, not substring-of-substring.
func TestPrometheusCuratedHelp(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("store.recovery.quarantined").Add(2)
	reg.Counter("store.recovery.entries").Add(40)
	reg.Counter("store.corrupt").Add(1)
	reg.Counter("runner.checkpoint.writes").Add(9)
	reg.Histogram("runner.checkpoint.us", []uint64{100, 1_000}).Observe(420)
	reg.Counter("runner.checkpoint.corrupt").Add(3)
	reg.Counter("cluster.dispatch.local").Add(1)
	reg.Counter("cluster.workers.evicted").Add(1)
	reg.Gauge("cluster.workers.healthy").Set(2)
	reg.Counter("store.degraded.writes").Add(4)
	reg.Counter("store.breaker.opened").Add(1)
	reg.Counter("store.quarantine.failed").Add(1)
	reg.Counter("store.scrub.passes").Add(6)
	reg.Counter("store.scrub.corrupt").Add(1)
	reg.Counter("store.gc.evictions").Add(7)
	reg.Counter("store.gc.bytes_reclaimed").Add(4096)
	reg.Counter("runner.checkpoint.degraded").Add(2)
	reg.Counter("server.campaigns.degraded").Add(4)
	reg.Counter("some.other.counter").Add(5)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantLines := []string{
		"# HELP afterimage_store_recovery_quarantined_total Torn or corrupt store files quarantined by the startup recovery scan.",
		"afterimage_store_recovery_quarantined_total 2",
		"# HELP afterimage_store_recovery_entries_total Valid entries indexed by the startup recovery scan.",
		"# HELP afterimage_store_corrupt_total Store reads that failed content verification and were quarantined.",
		"# HELP afterimage_runner_checkpoint_writes_total Durable runner checkpoint writes, each carrying every completed point not yet durable: an atomic first write per run, then one fsynced append per later write.",
		"# HELP afterimage_runner_checkpoint_us Wall time of each durable runner checkpoint write in microseconds, first writes and appends alike.",
		"afterimage_runner_checkpoint_us_count 1",
		"# HELP afterimage_runner_checkpoint_corrupt_total Unparseable runner checkpoints quarantined as .corrupt; the campaign recomputed identical results from scratch.",
		"afterimage_runner_checkpoint_corrupt_total 3",
		"# HELP afterimage_cluster_dispatch_local_total Dispatches degraded to local in-process execution (no dispatchable worker).",
		"# HELP afterimage_cluster_workers_evicted_total Workers evicted for missing heartbeats past the deadline.",
		"# HELP afterimage_cluster_workers_healthy Workers currently passing heartbeat probes.",
		"afterimage_cluster_workers_healthy 2",
		"# HELP afterimage_store_degraded_writes_total Result-cache writes shed by a disk fault or open write-health breaker; the campaign was served uncached.",
		"afterimage_store_degraded_writes_total 4",
		"# HELP afterimage_store_breaker_opened_total Store write-health breaker trips: consecutive write failures crossed the threshold, so writes shed without touching the disk until the cooldown probe succeeds.",
		"# HELP afterimage_store_quarantine_failed_total Corrupt entries that could not be renamed into quarantine and were deleted in place as a fallback.",
		"# HELP afterimage_store_scrub_passes_total Completed store integrity-scrub passes (background cadence or POST /v1/store/scrub).",
		"# HELP afterimage_store_scrub_corrupt_total Entries a scrub pass found failing content verification and quarantined before any read hit them.",
		"# HELP afterimage_store_gc_evictions_total Entries evicted oldest-first to hold the store under its size budget.",
		"# HELP afterimage_store_gc_bytes_reclaimed_total Bytes reclaimed by budget evictions.",
		"afterimage_store_gc_bytes_reclaimed_total 4096",
		"# HELP afterimage_runner_checkpoint_degraded_total Campaigns that lost checkpointing to a disk fault and ran to completion without resume protection.",
		"# HELP afterimage_server_campaigns_degraded_total Campaigns served successfully with their result-cache write shed (X-Afterimage-Cache: degraded).",
		// Uncurated names keep the generic fallback.
		"# HELP afterimage_some_other_counter_total Counter some.other.counter.",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w+"\n") {
			t.Errorf("output missing exact line %q:\n%s", w, out)
		}
	}
	if _, err := ValidatePrometheus(strings.NewReader(out)); err != nil {
		t.Errorf("validator rejects curated-help output: %v", err)
	}
}

// TestPrometheusDeterministic: two renders of the same snapshot are
// byte-identical (families and label sets are sorted, no map-order leaks).
func TestPrometheusDeterministic(t *testing.T) {
	reg := NewRegistry()
	for _, n := range []string{"b.two", "a.one", "c.three", "server.tenant.t9.requests", "server.tenant.t1.requests"} {
		reg.Counter(n).Add(uint64(len(n)))
	}
	reg.Histogram("lat.us", []uint64{1, 10, 100}).Observe(42)
	snap := reg.Snapshot()
	var one, two bytes.Buffer
	if err := WritePrometheus(&one, snap); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&two, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatalf("nondeterministic exposition:\n%s\nvs\n%s", one.String(), two.String())
	}
}

// TestValidatePrometheusRejects: structurally broken exposition fails with a
// diagnostic instead of passing silently.
func TestValidatePrometheusRejects(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"sample before TYPE", "afterimage_x_total 1\n"},
		{"unknown type", "# TYPE x frobnicator\nx 1\n"},
		{"bad metric name", "# TYPE 9bad counter\n9bad 1\n"},
		{"bad value", "# TYPE x counter\nx one\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n"},
		{"buckets out of order", "# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n"},
		{"missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"+Inf != count", "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 5\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n"},
		{"bare histogram sample", "# TYPE h histogram\nh 1\n"},
		{"duplicate TYPE", "# TYPE x counter\n# TYPE x counter\nx 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n, err := ValidatePrometheus(strings.NewReader(tc.text)); err == nil {
				t.Fatalf("validator accepted %q (%d samples)", tc.text, n)
			}
		})
	}
}

// TestValidatePrometheusAcceptsFullRegistry: a registry shaped like the
// live server's (counters, gauges, tenant counters, histograms) renders to
// validator-clean exposition.
func TestValidatePrometheusAcceptsFullRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server.requests").Add(12)
	reg.Counter("server.tenant.alice.requests").Add(4)
	reg.Counter("runner.jobs.completed").Add(8)
	reg.Gauge("server.admission.queued").Set(1)
	reg.RegisterFunc("cache.l1.hits", func() uint64 { return 99 })
	h := reg.Histogram("server.queue.wait.us", []uint64{100, 1000, 10000})
	h.Observe(50)
	h.Observe(5000)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	n, err := ValidatePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("validator rejected live-shaped registry: %v\n%s", err, buf.String())
	}
	// 4 counters + 1 gauge + (3 buckets + Inf + sum + count) = 11 samples.
	if n != 11 {
		t.Fatalf("validator counted %d samples, want 11:\n%s", n, buf.String())
	}
}
