package cliobs

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestLoggerFlagTokens: -log-level and -log-format accept their documented
// tokens in any case and reject anything else instead of defaulting.
func TestLoggerFlagTokens(t *testing.T) {
	for _, tc := range []struct {
		level, format string
		ok            bool
	}{
		{"debug", "text", true},
		{"info", "json", true},
		{"", "", true},
		{"warning", "JSON", true},
		{"ERROR", " text ", true},
		{"loud", "text", false},
		{"info", "xml", false},
	} {
		_, err := newLogger(io.Discard, tc.level, tc.format)
		if (err == nil) != tc.ok {
			t.Errorf("newLogger(%q, %q) error = %v, want ok=%v", tc.level, tc.format, err, tc.ok)
		}
	}
}

// TestLoggerLines: the JSON handler writes one object per line with the
// slog field names, and the level flag filters.
func TestLoggerLines(t *testing.T) {
	var buf bytes.Buffer
	l, err := newLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("store quarantine", "key", "ff01", "n", 2)
	out := buf.String()
	if strings.Contains(out, "dropped") || strings.Count(out, "\n") != 1 {
		t.Fatalf("want exactly the warn line, got %q", out)
	}
	for _, want := range []string{`{"time":`, `"level":"WARN"`, `"msg":"store quarantine"`, `"key":"ff01"`, `"n":2}`} {
		if !strings.Contains(out, want) {
			t.Errorf("line %q missing %s", out, want)
		}
	}
}
