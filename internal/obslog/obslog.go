// Package obslog is the glue between the standard library's log/slog and the
// observability spine. Loggers are plain *slog.Logger values; this package
// adds only what slog lacks here:
//
//   - the correlation-ID context plumbing: a campaign's correlation ID is
//     attached to its context once, at the HTTP boundary, and every layer
//     below (admission, store, runner, sim) stamps it onto log lines and
//     span records via Correlation(ctx);
//   - Ctx, which binds that ID to a logger as corr=… when there is one;
//   - a logger that discards everything, the default for a nil Logger in
//     every config (Go 1.22 has no slog.DiscardHandler).
//
// obslog sits below every other internal package so any of them can import
// it without cycles.
package obslog

import (
	"context"
	"log/slog"
)

// discardHandler is a slog.Handler that is never enabled, so a logger on it
// costs one interface call per line and formats nothing.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

var discard = slog.New(discardHandler{})

// OrDiscard returns l, or a logger that discards everything when l is nil.
// Constructors apply it to their config's Logger field, so callers never
// need a nil guard.
func OrDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return discard
	}
	return l
}

// Ctx returns l bound with the context's correlation ID (as corr=…), or l
// unchanged if the context carries none. A nil or discarding l returns the
// discarding logger without binding anything, so an unconfigured logger
// stays allocation-free on every request.
func Ctx(l *slog.Logger, ctx context.Context) *slog.Logger {
	l = OrDiscard(l)
	if l.Handler() == (discardHandler{}) {
		return l
	}
	if corr := Correlation(ctx); corr != "" {
		return l.With("corr", corr)
	}
	return l
}

type corrKey struct{}

// WithCorrelation returns a context carrying the campaign correlation ID.
// An empty ID returns the context unchanged.
func WithCorrelation(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, corrKey{}, id)
}

// Correlation extracts the correlation ID from the context, or "".
func Correlation(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(corrKey{}).(string)
	return id
}
