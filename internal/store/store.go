// Package store is the campaign service's persistent content-addressed
// result cache: byte payloads keyed by the sha256 of a canonical campaign
// fingerprint. Because the simulator makes every campaign a pure function of
// that fingerprint, an entry written once is valid forever — the store never
// needs invalidation, only integrity.
//
// Durability model:
//
//   - Writes are atomic and durable: payload + header go to a same-directory
//     temp file, the file is fsynced, renamed over the final name, and the
//     parent directory is fsynced. A crash at any point leaves either no
//     entry or a complete one under the final name — torn state can exist
//     only under a .tmp name, and every failed write removes its temp file.
//   - Open runs a recovery scan: leftover .tmp files and entries that fail
//     the integrity check are moved to a quarantine directory (never
//     deleted — they are crash forensics), and the store comes up serving
//     every intact entry. A corrupt cache degrades to a smaller cache, not
//     a failed server.
//   - Reads re-verify integrity: the entry's stored sha256 must match its
//     payload bytes. A mismatch (bit rot, external truncation) quarantines
//     the entry and reports a miss, so the caller transparently recomputes.
//   - A background scrubber (see scrub.go) re-verifies entries proactively
//     on a rate-limited walk, so bit rot is found and quarantined before a
//     client's cache hit trips over it.
//   - A size budget (see gc.go) evicts oldest entries first, never touching
//     pinned (in-flight) keys — the cache stays bounded under tournament
//     load instead of filling the disk.
//
// Disk-fault degradation: all filesystem access goes through an injectable
// vfs.FS, and the write path sits behind a health circuit breaker. A write
// error (ENOSPC, EIO) counts against the breaker; once it opens, subsequent
// Puts are dropped immediately (ErrDegraded, store.degraded.writes) until a
// half-open probe write succeeds. Reads are never gated — a full disk still
// serves every entry it already holds.
//
// Entry format (one file per key, sharded by the key's first byte):
//
//	afterimage-store/1 <key> <sha256(payload) hex> <len(payload)>\n
//	<payload bytes, verbatim>
//
// The payload is stored verbatim — not re-encoded — so the bytes a cache hit
// returns are exactly the bytes Put was given, which is what the service's
// byte-identity guarantee is stated over.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"afterimage/internal/cluster"
	"afterimage/internal/obslog"
	"afterimage/internal/telemetry"
	"afterimage/internal/vfs"
)

// Schema versions the on-disk entry format. An entry carrying a different
// schema token is quarantined rather than misread.
const Schema = "afterimage-store/1"

// QuarantineDir is the subdirectory (under the store root) that collects
// torn and corrupt files found by the recovery scan, the scrubber, or a
// failed read.
const QuarantineDir = "quarantine"

const entrySuffix = ".entry"

// ErrDegraded marks a Put the store's health breaker dropped: the disk has
// been failing writes, so the store sheds cache writes instead of stalling
// campaigns against a broken device. The caller's result is still valid —
// it just was not cached.
var ErrDegraded = errors.New("store: write dropped, health breaker open")

// Options assembles a Store for OpenWith. The zero value of every field is a
// usable default; Open is the two-argument shorthand.
type Options struct {
	// Dir is the store root (created if absent). Required.
	Dir string
	// Registry receives the store.* counters; nil disables metrics.
	Registry *telemetry.Registry
	// FS is the filesystem the store reads and writes through; nil means the
	// real one (vfs.OS()). The disk-chaos harness passes a vfs.FaultFS.
	FS vfs.FS
	// Budget bounds the total bytes of stored entries; 0 means unlimited.
	// When a write pushes the total past the budget, oldest entries are
	// evicted first (see gc.go).
	Budget int64
	// MinEvictAge protects just-written entries from eviction for this long
	// (0 = no age grace; pinned keys are always protected).
	MinEvictAge time.Duration
	// ScrubInterval starts a background scrubber pass this often (0 = no
	// background scrubbing; Scrub can still be called on demand).
	ScrubInterval time.Duration
	// ScrubRate bounds the scrubber to this many entry verifications per
	// second (0 = unlimited).
	ScrubRate int
	// BreakerThreshold is how many consecutive write failures open the
	// write-health breaker (<= 0 means 3).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting a
	// half-open probe write (<= 0 means 2s).
	BreakerCooldown time.Duration
	// Logger receives structured quarantine/scrub/GC/degrade events; nil
	// disables logging.
	Logger *slog.Logger
}

// Store is a directory of content-addressed entries. All methods are safe
// for concurrent use.
type Store struct {
	dir string
	fs  vfs.FS

	mu   sync.Mutex // serialises quarantine-name allocation
	qseq int        // quarantine name de-duplicator

	// imu guards the size index, pins, and eviction decisions.
	imu   sync.Mutex
	index map[string]entryMeta
	total int64
	pins  map[string]int

	budget      int64
	minAge      time.Duration
	scrubRate   int
	health      *cluster.Breaker
	scrubWG     sync.WaitGroup
	scrubCancel context.CancelFunc

	hits, misses, writes                    *telemetry.Counter
	corrupt, recovered, entries             *telemetry.Counter
	putErrors, degradedWrites               *telemetry.Counter
	breakerDropped, breakerOpened           *telemetry.Counter
	quarantineFailed                        *telemetry.Counter
	scrubPasses, scrubScanned, scrubCorrupt *telemetry.Counter
	gcEvictions, gcBytes, gcPinnedSkips     *telemetry.Counter
	bytesGauge                              *telemetry.Gauge
	readUS, writeUS                         *telemetry.Histogram

	log *slog.Logger
}

// entryMeta is the in-memory size/recency index behind the GC: enough to
// pick eviction victims without touching the disk.
type entryMeta struct {
	size    int64
	written time.Time
}

// latencyBounds bucket store I/O latency in µs: a cached read is tens of µs,
// a durable (double-fsync) write can reach tens of ms on loaded disks.
var latencyBounds = []uint64{10, 100, 1_000, 10_000, 100_000, 1_000_000}

// Open prepares the store rooted at dir (created if absent), runs the
// recovery scan, and registers the store.* counters on reg (nil disables
// metrics). It returns the ready store and how many entries the scan
// quarantined. It is the plain-disk shorthand for OpenWith.
func Open(dir string, reg *telemetry.Registry) (*Store, int, error) {
	return OpenWith(Options{Dir: dir, Registry: reg})
}

// OpenWith prepares a store from the full option set: filesystem seam, size
// budget, scrubber cadence, and write-health breaker tuning.
func OpenWith(o Options) (*Store, int, error) {
	if o.Dir == "" {
		return nil, 0, fmt.Errorf("store: Options.Dir is required")
	}
	fsys := o.FS
	if fsys == nil {
		fsys = vfs.OS()
	}
	if err := fsys.MkdirAll(filepath.Join(o.Dir, QuarantineDir), 0o755); err != nil {
		return nil, 0, fmt.Errorf("store: create %s: %w", o.Dir, err)
	}
	s := &Store{
		dir:       o.Dir,
		fs:        fsys,
		index:     make(map[string]entryMeta),
		pins:      make(map[string]int),
		budget:    o.Budget,
		minAge:    o.MinEvictAge,
		scrubRate: o.ScrubRate,
		health:    cluster.NewBreaker(o.BreakerThreshold, o.BreakerCooldown),
		log:       obslog.OrDiscard(o.Logger),
	}
	if reg := o.Registry; reg != nil {
		s.hits = reg.Counter("store.hits")
		s.misses = reg.Counter("store.misses")
		s.writes = reg.Counter("store.writes")
		s.corrupt = reg.Counter("store.corrupt")
		s.recovered = reg.Counter("store.recovery.quarantined")
		s.entries = reg.Counter("store.recovery.entries")
		s.putErrors = reg.Counter("store.put.errors")
		s.degradedWrites = reg.Counter("store.degraded.writes")
		s.breakerDropped = reg.Counter("store.breaker.dropped")
		s.breakerOpened = reg.Counter("store.breaker.opened")
		s.quarantineFailed = reg.Counter("store.quarantine.failed")
		s.scrubPasses = reg.Counter("store.scrub.passes")
		s.scrubScanned = reg.Counter("store.scrub.scanned")
		s.scrubCorrupt = reg.Counter("store.scrub.corrupt")
		s.gcEvictions = reg.Counter("store.gc.evictions")
		s.gcBytes = reg.Counter("store.gc.bytes_reclaimed")
		s.gcPinnedSkips = reg.Counter("store.gc.pinned_skips")
		s.bytesGauge = reg.Gauge("store.bytes")
		s.readUS = reg.Histogram("store.read.us", latencyBounds)
		s.writeUS = reg.Histogram("store.write.us", latencyBounds)
	}
	s.health.OnTransition(func(from, to cluster.BreakerState) {
		if to == cluster.BreakerOpen {
			s.breakerOpened.Inc()
		}
	})
	quarantined, err := s.recoveryScan()
	if err != nil {
		return nil, quarantined, err
	}
	if o.ScrubInterval > 0 {
		s.startScrubber(o.ScrubInterval, o.ScrubRate)
	}
	return s, quarantined, nil
}

// Close stops the background scrubber (if any) and waits for its current
// pass to finish. The store remains usable for reads and writes.
func (s *Store) Close() {
	if s.scrubCancel != nil {
		s.scrubCancel()
		s.scrubWG.Wait()
		s.scrubCancel = nil
	}
}

// Dir reports the store root.
func (s *Store) Dir() string { return s.dir }

// ValidKey reports whether key is a well-formed store key: 64 lowercase hex
// characters (a sha256 digest). Everything else is rejected before it can
// reach the filesystem.
func ValidKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Key hashes arbitrary canonical bytes into a store key.
func Key(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// path maps a key to its entry file, sharded by the first two hex digits so
// a large cache does not put millions of names in one directory.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+entrySuffix)
}

// Get returns the payload stored under key and whether it was present. An
// entry that fails the integrity check is quarantined and reported as a
// miss — the caller recomputes and the next Put rewrites it.
func (s *Store) Get(key string) ([]byte, bool) {
	return s.GetCtx(context.Background(), key)
}

// GetCtx is Get under a request context: the read latency lands in the
// store.read.us histogram and integrity failures are logged with the
// context's correlation ID, tying a quarantine to the campaign that hit it.
func (s *Store) GetCtx(ctx context.Context, key string) ([]byte, bool) {
	if !ValidKey(key) {
		s.misses.Inc()
		return nil, false
	}
	start := time.Now()
	defer func() {
		s.readUS.Observe(uint64(time.Since(start).Microseconds()))
	}()
	p := s.path(key)
	raw, err := s.fs.ReadFile(p)
	if err != nil {
		s.misses.Inc()
		return nil, false
	}
	body, err := decodeEntry(key, raw)
	if err != nil {
		s.corrupt.Inc()
		s.misses.Inc()
		s.quarantine(p)
		obslog.Ctx(s.log, ctx).Warn("store entry failed integrity check; quarantined",
			"key", key, "err", err)
		return nil, false
	}
	s.hits.Inc()
	return body, true
}

// Put stores payload under key with the full atomic-durable write sequence.
// Re-putting an existing key is allowed and atomic (last write wins); with a
// deterministic producer both writes hold identical bytes anyway.
func (s *Store) Put(key string, payload []byte) error {
	return s.PutCtx(context.Background(), key, payload)
}

// PutCtx is Put under a request context: write latency lands in the
// store.write.us histogram and the write is logged with the context's
// correlation ID.
//
// Disk faults degrade, they do not cascade: a failed write cleans up its
// temp file, counts against the health breaker, and returns the error —
// the entry is simply not cached. While the breaker is open, PutCtx returns
// ErrDegraded immediately without touching the disk; the first Put after
// the cooldown is the half-open probe that decides whether writes resume.
func (s *Store) PutCtx(ctx context.Context, key string, payload []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q (want 64 lowercase hex chars)", key)
	}
	start := time.Now()
	defer func() {
		s.writeUS.Observe(uint64(time.Since(start).Microseconds()))
	}()
	if !s.health.Allow(time.Now()) {
		s.breakerDropped.Inc()
		s.degradedWrites.Inc()
		obslog.Ctx(s.log, ctx).Warn("store write dropped: health breaker open", "key", key)
		return fmt.Errorf("%w (key %s)", ErrDegraded, key)
	}
	size, err := s.writeEntry(key, payload)
	if err != nil {
		s.health.Failure(time.Now())
		s.putErrors.Inc()
		s.degradedWrites.Inc()
		obslog.Ctx(s.log, ctx).Warn("store write failed; cache write shed",
			"key", key, "err", err)
		return err
	}
	s.health.Success(time.Now())
	s.writes.Inc()
	s.recordWrite(key, size, time.Now())
	obslog.Ctx(s.log, ctx).Debug("store write", "key", key, "bytes", len(payload))
	return nil
}

// writeEntry performs the atomic durable write sequence for one entry and
// returns the entry's on-disk size. Every error path removes the temp file —
// a failed Put must not leak .tmp litter for the recovery scan to quarantine
// later.
func (s *Store) writeEntry(key string, payload []byte) (int64, error) {
	p := s.path(key)
	shard := filepath.Dir(p)
	if err := s.fs.MkdirAll(shard, 0o755); err != nil {
		return 0, fmt.Errorf("store: create shard: %w", err)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %s %d\n", Schema, key, hex.EncodeToString(sum[:]), len(payload))

	tmp := p + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("store: create temp: %w", err)
	}
	if _, err := f.Write([]byte(header)); err != nil {
		f.Close()
		s.discardTemp(tmp)
		return 0, fmt.Errorf("store: write header: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		s.discardTemp(tmp)
		return 0, fmt.Errorf("store: write payload: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.discardTemp(tmp)
		return 0, fmt.Errorf("store: fsync entry: %w", err)
	}
	if err := f.Close(); err != nil {
		s.discardTemp(tmp)
		return 0, fmt.Errorf("store: close entry: %w", err)
	}
	if err := s.fs.Rename(tmp, p); err != nil {
		s.discardTemp(tmp)
		return 0, fmt.Errorf("store: publish entry: %w", err)
	}
	if err := s.fs.SyncDir(shard); err != nil {
		// The entry is published and intact; only the rename's durability is
		// in doubt. Report the failure (it counts against the breaker) — a
		// re-Put after the disk heals restores full durability.
		return 0, fmt.Errorf("store: fsync shard dir: %w", err)
	}
	return int64(len(header) + len(payload)), nil
}

// discardTemp removes a temp file a failed write left behind (best effort —
// the recovery scan quarantines anything that survives a crash here).
func (s *Store) discardTemp(tmp string) {
	if err := s.fs.Remove(tmp); err != nil && !os.IsNotExist(err) {
		s.log.Warn("store temp file could not be removed after failed write",
			"path", tmp, "err", err)
	}
}

// Len counts the intact-named entries currently on disk (integrity is not
// re-verified; Get does that per entry).
func (s *Store) Len() int {
	n := 0
	s.walkEntries(func(string, fs.DirEntry) { n++ })
	return n
}

// Keys lists every stored key (unverified), in no particular order.
func (s *Store) Keys() []string {
	var keys []string
	s.walkEntries(func(path string, _ fs.DirEntry) {
		keys = append(keys, strings.TrimSuffix(filepath.Base(path), entrySuffix))
	})
	return keys
}

// TotalBytes reports the indexed on-disk size of all entries — the quantity
// the GC budget is enforced over.
func (s *Store) TotalBytes() int64 {
	s.imu.Lock()
	defer s.imu.Unlock()
	return s.total
}

// QuarantinedFiles lists the files the recovery scan, the scrubber, or
// failed reads set aside.
func (s *Store) QuarantinedFiles() []string {
	ents, err := s.fs.ReadDir(filepath.Join(s.dir, QuarantineDir))
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// walk recursively visits every file under dir through the store's FS,
// skipping the quarantine directory. Unreadable directories are skipped —
// a vanishing shard is not a walk failure.
func (s *Store) walk(dir string, fn func(path string, d fs.DirEntry)) {
	ents, err := s.fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		p := filepath.Join(dir, e.Name())
		if e.IsDir() {
			if dir == s.dir && e.Name() == QuarantineDir {
				continue
			}
			s.walk(p, fn)
			continue
		}
		fn(p, e)
	}
}

// walkEntries visits every *.entry file outside the quarantine directory.
func (s *Store) walkEntries(fn func(path string, d fs.DirEntry)) {
	s.walk(s.dir, func(path string, d fs.DirEntry) {
		if strings.HasSuffix(d.Name(), entrySuffix) {
			fn(path, d)
		}
	})
}

// recoveryScan walks the store once at Open: leftover temp files are
// quarantined unconditionally (a crash interrupted their write), and every
// entry file is decoded and integrity-checked, with failures quarantined.
// Valid entries seed the in-memory size index the GC budget runs over. The
// scan itself never fails the Open for per-file damage — that is the point —
// but an unreadable root does.
func (s *Store) recoveryScan() (int, error) {
	if _, err := s.fs.ReadDir(s.dir); err != nil {
		return 0, fmt.Errorf("store: recovery scan: %w", err)
	}
	quarantined := 0
	var bad []string
	s.walk(s.dir, func(path string, d fs.DirEntry) {
		if strings.HasSuffix(d.Name(), ".tmp") {
			bad = append(bad, path)
			return
		}
		if !strings.HasSuffix(d.Name(), entrySuffix) {
			return // foreign file; leave it alone
		}
		key := strings.TrimSuffix(d.Name(), entrySuffix)
		raw, rerr := s.fs.ReadFile(path)
		if rerr != nil {
			bad = append(bad, path)
			return
		}
		if _, derr := decodeEntry(key, raw); derr != nil {
			bad = append(bad, path)
			return
		}
		written := time.Now()
		if info, ierr := d.Info(); ierr == nil {
			written = info.ModTime()
		}
		s.imu.Lock()
		s.index[key] = entryMeta{size: int64(len(raw)), written: written}
		s.total += int64(len(raw))
		s.setBytesGauge()
		s.imu.Unlock()
		s.entries.Inc()
	})
	for _, p := range bad {
		s.quarantine(p)
		quarantined++
	}
	s.recovered.Add(uint64(quarantined))
	return quarantined, nil
}

// quarantine moves a damaged file into the quarantine directory under a
// unique name. A failed rename falls back to removal — a torn entry must not
// keep masquerading as a valid one — and bumps store.quarantine.failed so
// the forensics loss is visible. If even the removal fails, the entry stays
// on disk but can never be re-served: every future read re-fails the same
// integrity check.
func (s *Store) quarantine(path string) {
	s.mu.Lock()
	s.qseq++
	dst := filepath.Join(s.dir, QuarantineDir, fmt.Sprintf("%s.%d", filepath.Base(path), s.qseq))
	s.mu.Unlock()
	if err := s.fs.Rename(path, dst); err != nil {
		s.quarantineFailed.Inc()
		if rerr := s.fs.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
			s.log.Error("quarantine rename and removal both failed; corrupt file remains (unservable)",
				"path", path, "rename_err", err, "remove_err", rerr)
		} else {
			s.log.Warn("quarantine rename failed; corrupt file removed instead (forensics lost)",
				"path", path, "err", err)
		}
	}
	s.dropFromIndex(path)
}

// dropFromIndex removes a departed entry file from the size index.
func (s *Store) dropFromIndex(path string) {
	base := filepath.Base(path)
	if !strings.HasSuffix(base, entrySuffix) {
		return
	}
	key := strings.TrimSuffix(base, entrySuffix)
	s.imu.Lock()
	if m, ok := s.index[key]; ok {
		s.total -= m.size
		delete(s.index, key)
		s.setBytesGauge()
	}
	s.imu.Unlock()
}

// setBytesGauge publishes the indexed total. Callers hold imu.
func (s *Store) setBytesGauge() {
	s.bytesGauge.Set(s.total)
}

// decodeEntry parses and verifies one entry file: schema token, key match,
// declared length, and the payload's sha256.
func decodeEntry(key string, raw []byte) ([]byte, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("store: entry has no header line")
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) != 4 {
		return nil, fmt.Errorf("store: header has %d fields, want 4", len(fields))
	}
	if fields[0] != Schema {
		return nil, fmt.Errorf("store: entry schema %q, want %q", fields[0], Schema)
	}
	if fields[1] != key {
		return nil, fmt.Errorf("store: entry key %q does not match file name %q", fields[1], key)
	}
	n, err := strconv.Atoi(fields[3])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("store: bad payload length %q", fields[3])
	}
	body := raw[nl+1:]
	if len(body) != n {
		return nil, fmt.Errorf("store: payload is %d bytes, header declares %d", len(body), n)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != fields[2] {
		return nil, fmt.Errorf("store: payload sha256 mismatch")
	}
	return body, nil
}
