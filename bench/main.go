// Command bench measures AfterImage campaigns end to end and layer by layer.
//
// One run drives one workload for a fixed window with a closed loop of two
// clients, checks that every result it received is correct, and prints one
// JSON object as the last line of standard output:
//
//	bash bench/run.sh --workload campaign-warm --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, every time in them
// adjusted to reference host speed (see host.go); with --trace 1 it carries
// the per-layer metrics, timed from outside by wrapping the calls into each
// layer (see trace.go). --compare a.jsonl b.jsonl compares two sets
// of runs recorded with --out against the bounds in BENCHMARK.json. See
// README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. The same table generates the run
// output and is checked against BENCHMARK.json by the schema test.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the campaign API sees, reported with
// tracing off on every workload. An "op" is one campaign (campaign-*) or one
// HTTP request (serve-*).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_ms.p50", "ms", "lower"},
	{"op_ms.p90", "ms", "lower"},
	{"sim_mcycles_per_s", "Mcycles/s", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"heap_peak_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported by the traced run. A
// workload that does not cross a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	// Sweep stages (campaign-*), replayed step by step through public calls.
	{"sweep.lab.ms", "ms/campaign", "lower"},
	{"sweep.template.ms", "ms/campaign", "lower"},
	{"sweep.template.share", "frac", "lower"},
	{"sweep.warmup.ms", "ms/campaign", "lower"},
	{"sweep.warmup.share", "frac", "lower"},
	{"sim.load.ns", "ns/load", "lower"},
	{"sim.fork.ms", "ms/point", "lower"},
	{"sim.fork.share", "frac", "lower"},
	{"sim.fork.alloc_mb", "MB/fork", "lower"},
	{"attack.ms", "ms/point", "lower"},
	{"attack.share", "frac", "lower"},
	{"sim.audit.ms", "ms/point", "lower"},
	{"sim.audit.share", "frac", "lower"},
	{"sim.hash.ms", "ms/point", "lower"},
	{"sim.hash.share", "frac", "lower"},
	{"runner.self.ms", "ms/campaign", "lower"},
	{"runner.self.share", "frac", "lower"},
	{"runner.attempts_per_job", "attempts/job", "lower"},
	{"sweep.assemble.ms", "ms/campaign", "lower"},
	{"sweep.bookkeeping_ratio", "ratio", "lower"},
	{"sweep.stage_coverage", "frac", "higher"},
	{"telemetry.observe.ns", "ns/observe", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	// Service path (serve-*), timed around the HTTP, handler, store and
	// filesystem boundaries.
	{"serve.hit_ms.p50", "ms", "lower"},
	{"serve.hit_ms.p99", "ms", "lower"},
	{"serve.miss_ms.p50", "ms", "lower"},
	{"serve.miss_ms.p99", "ms", "lower"},
	{"server.handler.hit.us", "us", "lower"},
	{"net.http.hit.us", "us", "lower"},
	{"store.get.us", "us", "lower"},
	{"store.put.us", "us", "lower"},
	{"store.hit_frac", "frac", "higher"},
	{"vfs.create.us", "us", "lower"},
	{"vfs.write.us", "us", "lower"},
	{"vfs.sync.us", "us", "lower"},
	{"vfs.syncdir.us", "us", "lower"},
	{"vfs.rename.us", "us", "lower"},
	{"vfs.read.us", "us", "lower"},
	{"vfs.create.per_miss", "calls/miss", "lower"},
	{"vfs.write.per_miss", "calls/miss", "lower"},
	{"vfs.sync.per_miss", "calls/miss", "lower"},
	{"vfs.syncdir.per_miss", "calls/miss", "lower"},
	{"vfs.rename.per_miss", "calls/miss", "lower"},
	{"vfs.read.per_hit", "calls/hit", "lower"},
	// The program's own wall-time histograms, read back as a cross-check
	// under the names /metrics uses.
	{"server.queue.wait.us", "us", "lower"},
	{"store.read.us", "us", "lower"},
	{"store.write.us", "us", "lower"},
	{"runner.attempt.us", "us", "lower"},
	// Cluster dispatch (serve-cluster).
	{"cluster.dispatch.rtt.ms", "ms", "lower"},
	{"worker.execute.ms", "ms", "lower"},
	{"cluster.dispatch.overhead.ms", "ms", "lower"},
	{"cluster.attempts_per_job", "attempts/job", "lower"},
	{"cluster.failovers_per_job", "failovers/job", "lower"},
	{"cluster.hedge.waste_frac", "frac", "lower"},
	{"cluster.worker.share_max", "frac", "lower"},
	{"cluster.heartbeat.per_s", "1/s", "lower"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of an --out file: the result plus what produced it and
// how many samples stand behind each metric.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Samples  map[string]int `json:"samples"`
	// Raw holds the timing metrics as wall time, the median host speed and
	// the median probe readings.
	Raw map[string]float64 `json:"raw,omitempty"`
	result
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 25, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		traceOut = flag.String("trace-out", "", "with --trace 1, also write the spans as Chrome trace-event JSON to this file")
		out      = flag.String("out", "", "append the run's record to this JSON-lines file")
		compare  = flag.Bool("compare", false, "compare two --out files given as arguments against the bounds in BENCHMARK.json")
		golden   = flag.String("write-golden", "", "at --seed 1, write the workload's result digests into this golden file")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two files, got %d", flag.NArg())
		}
		ok, err := compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if *golden != "" && *seed != 1 {
		fatalf("-write-golden needs --seed 1")
	}
	workdir, err := filepath.Abs(".bench_build")
	if err != nil {
		fatalf("%v", err)
	}
	cfg := config{
		seed:        *seed,
		window:      time.Duration(*seconds) * time.Second,
		trace:       *trace == 1,
		traceOut:    *traceOut,
		workdir:     workdir,
		clients:     2,
		setups:      9,
		verify:      8,
		writeGolden: *golden,
	}

	// The run must end within its time limit even if a layer hangs; a hung
	// run prints no result.
	limit := cfg.window + 2*time.Minute
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: run exceeded %v; aborting\n", limit)
		os.Exit(2)
	})
	rep, err := run(context.Background(), w, cfg)
	watchdog.Stop()
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	printTable(os.Stderr, w.name, rep)
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
			Seconds: cfg.window.Seconds(), Samples: rep.samples, Raw: rep.raw, result: rep.result}); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// appendRecord adds one JSON line to path.
func appendRecord(path string, rec record) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printTable writes the human-readable view of a run: every metric with its
// unit and the number of samples behind it.
func printTable(f *os.File, workload string, rep report) {
	fmt.Fprintf(f, "%s: correct=%v attempted=%d failed=%d\n", workload, rep.Correct, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(f, "  %-30s %14.4f %-12s n=%d\n", n, m.Value, m.Unit, rep.samples[n])
	}
	if len(rep.raw) > 0 {
		fmt.Fprintf(f, "  as wall time, before the host-speed adjustment:\n")
		names = names[:0]
		for n := range rep.raw {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(f, "  %-30s %14.4f\n", n, rep.raw[n])
		}
	}
}
