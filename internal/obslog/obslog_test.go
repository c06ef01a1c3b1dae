package obslog

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
)

func jsonLogger(buf *bytes.Buffer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: level}))
}

// TestLevelFiltering: a logger bound by Ctx keeps its handler's level.
func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := Ctx(jsonLogger(&buf, slog.LevelWarn), WithCorrelation(context.Background(), "c1"))
	l.Debug("nope")
	l.Info("nope")
	l.Warn("yes")
	l.Error("also")
	out := buf.String()
	if strings.Contains(out, "nope") || !strings.Contains(out, "yes") || !strings.Contains(out, "also") {
		t.Fatalf("level filtering broken:\n%s", out)
	}
	if l.Enabled(context.Background(), slog.LevelInfo) || !l.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("Enabled disagrees with filtering")
	}
}

func TestNilLoggerSafe(t *testing.T) {
	ctx := WithCorrelation(context.Background(), "c1")
	var l *slog.Logger
	Ctx(l, ctx).Info("into the void", "k", "v")
	Ctx(OrDiscard(l).With("a", "b"), context.Background()).Error("still fine")
	if OrDiscard(l).Enabled(ctx, slog.LevelError) {
		t.Fatal("nil logger claims to be enabled")
	}
	if got := Ctx(l, ctx); got != OrDiscard(nil) {
		t.Fatal("Ctx bound a correlation ID to the discarding logger")
	}
}

// TestNilLoggerAllocatesNothing: an unconfigured logger costs no allocation
// on a request that carries a correlation ID.
func TestNilLoggerAllocatesNothing(t *testing.T) {
	ctx := WithCorrelation(context.Background(), "corr-9")
	if n := testing.AllocsPerRun(100, func() { Ctx(nil, ctx).Info("drain started") }); n != 0 {
		t.Fatalf("nil logger allocated %v times per line", n)
	}
}

func TestCorrelationContext(t *testing.T) {
	ctx := WithCorrelation(context.Background(), "corr-9")
	if got := Correlation(ctx); got != "corr-9" {
		t.Fatalf("Correlation = %q", got)
	}
	if got := Correlation(context.Background()); got != "" {
		t.Fatalf("empty context Correlation = %q", got)
	}
	if WithCorrelation(ctx, "") != ctx {
		t.Fatal("empty ID should not wrap the context")
	}

	var buf bytes.Buffer
	l := jsonLogger(&buf, slog.LevelInfo)
	Ctx(l, ctx).Info("stamped")
	if !strings.Contains(buf.String(), `"corr":"corr-9"`) {
		t.Fatalf("Ctx did not stamp correlation: %q", buf.String())
	}
	buf.Reset()
	Ctx(l, context.Background()).Info("bare")
	if strings.Contains(buf.String(), "corr") {
		t.Fatalf("Ctx stamped a correlation that was not there: %q", buf.String())
	}
}
