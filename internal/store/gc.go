package store

import (
	"os"
	"sort"
	"time"
)

// Retention / garbage collection: the store enforces a configurable size
// budget (Options.Budget) over the in-memory size index. Every successful
// Put records its entry and, when the total exceeds the budget, evicts the
// oldest entries first until the store fits again. Three classes of entry
// are never evicted:
//
//   - pinned keys (Pin/Unpin — the server pins a campaign's key for the
//     lifetime of its single-flight execution, so a result cannot be evicted
//     between being written and being served to its waiters);
//   - entries younger than Options.MinEvictAge (just-written grace);
//   - the entry the triggering Put itself just wrote (evicting it would be
//     pure cache thrash: the bytes were wanted milliseconds ago).
//
// The budget is therefore a soft ceiling: pinned and fresh entries can hold
// the store above it temporarily, and a single entry larger than the budget
// survives until the next write for a different key displaces it.

// Pin marks key as in-flight: the GC will not evict it until a matching
// Unpin. Pins are counted, so overlapping flights on one key nest safely.
func (s *Store) Pin(key string) {
	s.imu.Lock()
	s.pins[key]++
	s.imu.Unlock()
}

// Unpin releases one Pin on key.
func (s *Store) Unpin(key string) {
	s.imu.Lock()
	if s.pins[key] > 1 {
		s.pins[key]--
	} else {
		delete(s.pins, key)
	}
	s.imu.Unlock()
}

// Pinned reports key's current pin count (tests and triage).
func (s *Store) Pinned(key string) int {
	s.imu.Lock()
	defer s.imu.Unlock()
	return s.pins[key]
}

// recordWrite indexes a just-published entry and runs the eviction pass the
// write may have made necessary.
func (s *Store) recordWrite(key string, size int64, now time.Time) {
	s.imu.Lock()
	defer s.imu.Unlock()
	if old, ok := s.index[key]; ok {
		s.total -= old.size
	}
	s.index[key] = entryMeta{size: size, written: now}
	s.total += size
	s.setBytesGauge()
	s.evictLocked(now, key)
}

// evictLocked brings the store back under budget by deleting oldest entries
// first, skipping pinned keys, entries younger than the grace period, and
// justWritten (the key whose write triggered this pass). Callers hold imu.
//
// Eviction removes the entry file through the store's FS; a removal error
// leaves the entry indexed (a later pass retries). Eviction order is total:
// (written time, key), so two stores with identical write histories evict
// identically.
func (s *Store) evictLocked(now time.Time, justWritten string) {
	if s.budget <= 0 || s.total <= s.budget {
		return
	}
	type victim struct {
		key  string
		meta entryMeta
	}
	cands := make([]victim, 0, len(s.index))
	for k, m := range s.index {
		cands = append(cands, victim{k, m})
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].meta.written.Equal(cands[j].meta.written) {
			return cands[i].meta.written.Before(cands[j].meta.written)
		}
		return cands[i].key < cands[j].key
	})
	for _, v := range cands {
		if s.total <= s.budget {
			return
		}
		if v.key == justWritten {
			continue
		}
		if s.pins[v.key] > 0 {
			s.gcPinnedSkips.Inc()
			continue
		}
		if s.minAge > 0 && now.Sub(v.meta.written) < s.minAge {
			// Candidates are ordered oldest-first, so every later entry is
			// inside the grace period too — the pass is done.
			s.gcPinnedSkips.Inc()
			return
		}
		if err := s.fs.Remove(s.path(v.key)); err != nil && !os.IsNotExist(err) {
			s.log.Warn("store GC could not evict entry",
				"key", v.key, "err", err)
			continue
		}
		s.total -= v.meta.size
		delete(s.index, v.key)
		s.setBytesGauge()
		s.gcEvictions.Inc()
		s.gcBytes.Add(uint64(v.meta.size))
		s.log.Debug("store GC evicted entry", "key", v.key,
			"bytes", v.meta.size, "total", s.total)
	}
}
