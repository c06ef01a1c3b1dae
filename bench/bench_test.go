package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"afterimage/internal/telemetry"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks BENCHMARK.json against the metric tables the
// command reports from, and against the limits of the benchmark format.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "command,end_to_end,paths,per_layer,run_seconds,workloads"; got != want {
		t.Fatalf("top-level keys %s, want %s", got, want)
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the command has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		checkName(t, seen, w.Name)
	}

	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the command reports %s/%s/%s", kind, i,
					m.Name, m.Unit, m.Better, want[i].name, want[i].unit, want[i].better)
			}
			checkName(t, seen, m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	var setup, widest float64
	for _, m := range spec.EndToEnd {
		if m.Bound == nil {
			continue
		}
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
		widest = max(widest, *m.Bound)
	}
	if setup != widest {
		t.Errorf("setup_s bound %v, want the largest bound %v", setup, widest)
	}
}

func checkName(t *testing.T, seen map[string]bool, name string) {
	t.Helper()
	if !nameRE.MatchString(name) {
		t.Errorf("bad name %q", name)
	}
	if seen[name] {
		t.Errorf("name %q used twice", name)
	}
	seen[name] = true
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, at
// seed 1: the results must be correct (two golden operations recomputed),
// the trace must validate, and the run must report exactly the metric
// table.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name
			if traced {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{seed: 1, window: 300 * time.Millisecond, trace: traced, workdir: dir,
					clients: 2, setups: 1, verify: 2}
				if traced {
					cfg.traceOut = filepath.Join(dir, "trace.json")
				}
				rep, err := run(context.Background(), w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s: got %+v (present %v)", m.name, got, ok)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want > 0", m.name, got.Value)
					}
				}
				if traced {
					f, err := os.Open(cfg.traceOut)
					if err != nil {
						t.Fatal(err)
					}
					defer f.Close()
					if _, err := telemetry.ValidateChromeTrace(f); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestSpreadMatchesPythonQuantiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which the acceptance check uses:
// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	med, iqr := spread(xs)
	if med != 5.5 || math.Abs(iqr-(8.25-2.75)/5.5) > 1e-12 {
		t.Fatalf("spread = %v, %v; want 5.5, %v", med, iqr, (8.25-2.75)/5.5)
	}
}
