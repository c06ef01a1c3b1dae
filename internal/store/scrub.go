package store

import (
	"context"
	"io/fs"
	"path/filepath"
	"strings"
	"time"
)

// The scrubber turns the store's lazy integrity checking proactive: instead
// of waiting for a cache hit to trip over bit rot, a rate-limited walk
// re-verifies every entry's sha256 and quarantines corruption as it is
// found. It runs on a timer (Options.ScrubInterval) and on demand (the
// server's POST /v1/store/scrub). Scrubbing is safe concurrent with reads
// and writes: entries are published by atomic rename, so a scrub read sees
// either the old complete entry or the new one, and an entry that vanishes
// mid-scrub (evicted or re-quarantined) is skipped, not counted as damage.

// ScrubReport summarises one scrub pass.
type ScrubReport struct {
	// Scanned is how many entries were read and verified.
	Scanned int `json:"scanned"`
	// Corrupt is how many failed verification and were quarantined.
	Corrupt int `json:"corrupt"`
}

// Scrub runs one full verification pass, bounded by ctx and by the
// per-second rate (0 = unlimited) configured at open. It returns what it
// scanned and quarantined.
func (s *Store) Scrub(ctx context.Context) ScrubReport {
	return s.scrub(ctx, s.scrubRate)
}

func (s *Store) scrub(ctx context.Context, rate int) ScrubReport {
	s.scrubPasses.Inc()
	var rep ScrubReport

	// Snapshot the entry list first so one pass is bounded even while
	// concurrent writes add entries.
	var paths []string
	s.walkEntries(func(path string, _ fs.DirEntry) { paths = append(paths, path) })

	var gap time.Duration
	if rate > 0 {
		gap = time.Second / time.Duration(rate)
	}
	for _, p := range paths {
		if ctx.Err() != nil {
			break
		}
		if gap > 0 && !sleepCtx(ctx, gap) {
			break
		}
		key := strings.TrimSuffix(filepath.Base(p), entrySuffix)
		raw, err := s.fs.ReadFile(p)
		if err != nil {
			continue // vanished mid-pass (evicted/quarantined); not damage
		}
		rep.Scanned++
		s.scrubScanned.Inc()
		if _, derr := decodeEntry(key, raw); derr != nil {
			rep.Corrupt++
			s.scrubCorrupt.Inc()
			s.quarantine(p)
			s.log.Warn("scrubber quarantined corrupt entry",
				"key", key, "err", derr)
		}
	}
	if rep.Corrupt > 0 {
		s.log.Info("scrub pass complete", "scanned", rep.Scanned,
			"corrupt", rep.Corrupt)
	}
	return rep
}

// startScrubber launches the background verification loop. Stopped by
// Close.
func (s *Store) startScrubber(interval time.Duration, rate int) {
	ctx, cancel := context.WithCancel(context.Background())
	s.scrubCancel = cancel
	s.scrubWG.Add(1)
	go func() {
		defer s.scrubWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.scrub(ctx, rate)
			}
		}
	}()
}

// sleepCtx waits d, reporting false if ctx expired first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
