// Package cliobs gives every cmd/ binary the same observability surface:
// -trace exports a Chrome trace_event JSON of the run (chrome://tracing /
// Perfetto), -metrics prints the machine-wide registry snapshot, and -pprof
// serves the standard net/http/pprof endpoints while the simulation runs.
//
// Usage in a main:
//
//	obs := cliobs.Register()
//	flag.Parse()
//	obs.Start()
//	lab := afterimage.NewLab(...)
//	obs.Observe(lab)
//	... run experiments ...
//	obs.Finish()
package cliobs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"strings"

	"afterimage"
)

// Flags holds the parsed observability options and the lab under
// observation.
type Flags struct {
	TracePath string
	TraceCap  int
	Metrics   bool
	PprofAddr string
	// AuditEvery is the invariant-audit cadence (Options.AuditEvery):
	// audit the full machine state every N domain switches, 0 = off.
	AuditEvery int
	// LogFormat selects the structured-log encoding: text (default) or json.
	LogFormat string
	// LogLevel is the minimum severity emitted: debug, info (default),
	// warn, or error.
	LogLevel string

	lab *afterimage.Lab
}

// Register installs -trace, -trace-cap, -metrics and -pprof on the default
// flag set. Call before flag.Parse.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.TracePath, "trace", "", "write a Chrome trace-event JSON of the run to this file (view in chrome://tracing or ui.perfetto.dev)")
	flag.IntVar(&f.TraceCap, "trace-cap", 0, "trace ring capacity in events (0 = default 256k; oldest events drop when exceeded)")
	flag.BoolVar(&f.Metrics, "metrics", false, "print the telemetry registry snapshot after the run")
	flag.StringVar(&f.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	flag.IntVar(&f.AuditEvery, "audit", 0, "audit the simulator's structural invariants every N domain switches; a failing audit aborts the experiment with a corruption fault (0 = off)")
	flag.StringVar(&f.LogFormat, "log-format", "text", "structured log encoding: text or json (one object per line, stable field order)")
	flag.StringVar(&f.LogLevel, "log-level", "info", "minimum log severity: debug, info, warn, or error")
	return f
}

// Logger builds the structured stderr logger the -log-format/-log-level
// flags describe. Call after flag.Parse; flag errors are reported rather
// than silently defaulted.
func (f *Flags) Logger() (*slog.Logger, error) {
	return newLogger(os.Stderr, f.LogLevel, f.LogFormat)
}

// newLogger builds a log/slog text or JSON logger writing to w at the named
// level.
func newLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{}
	switch strings.ToLower(strings.TrimSpace(level)) {
	case "debug":
		opts.Level = slog.LevelDebug
	case "info", "":
		opts.Level = slog.LevelInfo
	case "warn", "warning":
		opts.Level = slog.LevelWarn
	case "error":
		opts.Level = slog.LevelError
	default:
		return nil, fmt.Errorf("cliobs: unknown log level %q (want debug|info|warn|error)", level)
	}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("cliobs: unknown log format %q (want text|json)", format)
}

// LabOptions folds the observability flags that configure the lab itself
// (currently the audit cadence) into an options value. Mains pass their
// hand-built Options through this before NewLab.
func (f *Flags) LabOptions(opts afterimage.Options) afterimage.Options {
	opts.AuditEvery = f.AuditEvery
	return opts
}

// Start launches the pprof server, if requested. Call after flag.Parse.
func (f *Flags) Start() {
	if f.PprofAddr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(f.PprofAddr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", f.PprofAddr)
}

// Observe attaches the flags to a lab, enabling tracing when -trace was
// given. Binaries that build several labs observe the one whose run should
// be exported (trace and metrics apply to the last Observe'd lab).
func (f *Flags) Observe(lab *afterimage.Lab) {
	f.lab = lab
	if f.TracePath != "" {
		lab.EnableTrace(f.TraceCap)
	}
}

// Finish writes the trace file and prints the metrics snapshot and phase
// summaries, as requested. It returns an error instead of exiting so mains
// control their own status codes.
func (f *Flags) Finish() error {
	if f.lab == nil {
		return nil
	}
	if f.Metrics {
		fmt.Println("--- metrics ---")
		fmt.Print(f.lab.MetricsSnapshot().String())
		if phases := f.lab.PhaseSummaries(); len(phases) > 0 {
			fmt.Println("--- phases ---")
			for _, p := range phases {
				fmt.Printf("%-10s spans=%d cycles=%d events=%d\n", p.Name, p.Spans, p.Cycles, p.Events)
			}
		}
	}
	if f.TracePath == "" {
		return nil
	}
	out, err := os.Create(f.TracePath)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer out.Close()
	if err := f.lab.WriteTrace(out); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if d := f.lab.TraceDropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "trace: ring overflowed, oldest %d events dropped (raise -trace-cap to keep more)\n", d)
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", f.TracePath)
	return nil
}
