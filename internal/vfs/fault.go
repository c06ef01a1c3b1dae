package vfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	iofs "io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"afterimage/internal/telemetry"
)

// ErrInjected tags every error the fault injector fabricates, so tests and
// failure classification can tell an injected disk fault from a real one.
// The underlying errno (syscall.ENOSPC, syscall.EIO) is also in the chain:
// errors.Is(err, syscall.ENOSPC) holds for an injected full disk exactly as
// it would for a real one.
var ErrInjected = errors.New("vfs: injected disk fault")

// Op names one faultable filesystem operation. Read-side operations
// (ReadFile, ReadDir, Stat, Remove, MkdirAll, SyncDir) pass through
// unfaulted — the write path is where durability lives, and read-side damage
// is modeled by real bit flips in the chaos tests.
type Op string

// The faultable operations.
const (
	OpCreate Op = "create" // opening the temp file (ENOSPC applies)
	OpWrite  Op = "write"  // writing bytes (ENOSPC, EIO, torn apply)
	OpSync   Op = "sync"   // fsync (ENOSPC, EIO apply — the fsyncgate shape)
	OpRename Op = "rename" // publishing the entry (RenameFailRate applies)
)

// FaultConfig parameterises the deterministic filesystem-fault injector.
// Like the cluster's net-fault injector, the whole schedule is a pure
// function of the config: the decision for the n-th faultable operation on a
// path is derived from (Seed, path, n) by FNV-1a hashing, so two injectors
// with equal configs fault the identical operations in the identical ways —
// every degradation path a disk-chaos run takes is reproducible from its
// seed.
type FaultConfig struct {
	// Seed drives every fault decision. Equal seeds replay equal schedules.
	Seed int64
	// ENOSPCRate is the probability a create/write/sync operation fails with
	// ENOSPC (disk full). ENOSPC shadows EIO and torn writes for the same
	// operation — a full disk reports full, not flaky.
	ENOSPCRate float64
	// EIORate is the probability a write/sync operation fails with EIO.
	EIORate float64
	// TornWriteRate is the probability a write is silently truncated: a
	// deterministic fraction of the buffer reaches the file and the call
	// reports success — the short-write a crashing disk controller leaves
	// behind. Only integrity verification (sha256 on read, the scrubber, the
	// recovery scan) can catch it, which is the point.
	TornWriteRate float64
	// RenameFailRate is the probability a rename fails with EIO, leaving the
	// temp file unpublished.
	RenameFailRate float64
	// Registry, when set, receives the vfs.fault.* counters.
	Registry *telemetry.Registry
}

// FaultDecision is the schedule entry for one (path, n) operation slot: the
// independent draws for every fault kind. Which draw applies depends on the
// operation occupying the slot — Fault and TornWrite encode that mapping.
type FaultDecision struct {
	ENOSPC     bool
	EIO        bool
	Torn       bool
	TornFrac   float64 // fraction of the buffer written when Torn applies
	RenameFail bool
}

// Fault resolves the decision against an operation: the injected error for
// this slot, or nil. Precedence for write-path ops is ENOSPC > EIO; torn
// writes are not errors (see TornWrite). Renames consult only RenameFail.
func (d FaultDecision) Fault(op Op) error {
	switch op {
	case OpCreate:
		if d.ENOSPC {
			return injectedErr(syscall.ENOSPC, op)
		}
	case OpWrite, OpSync:
		if d.ENOSPC {
			return injectedErr(syscall.ENOSPC, op)
		}
		if d.EIO {
			return injectedErr(syscall.EIO, op)
		}
	case OpRename:
		if d.RenameFail {
			return injectedErr(syscall.EIO, op)
		}
	}
	return nil
}

// TornWrite reports whether a write in this slot is silently truncated
// (only when no error shadows it).
func (d FaultDecision) TornWrite(op Op) bool {
	return op == OpWrite && !d.ENOSPC && !d.EIO && d.Torn
}

func injectedErr(errno error, op Op) error {
	return fmt.Errorf("%w: %w during %s", ErrInjected, errno, op)
}

// decide computes the deterministic draws for the n-th faultable operation
// on path.
func (cfg FaultConfig) decide(path string, n uint64) FaultDecision {
	return FaultDecision{
		ENOSPC:     fchance(cfg.Seed, path, n, "enospc") < cfg.ENOSPCRate,
		EIO:        fchance(cfg.Seed, path, n, "eio") < cfg.EIORate,
		Torn:       fchance(cfg.Seed, path, n, "torn") < cfg.TornWriteRate,
		TornFrac:   fchance(cfg.Seed, path, n, "torn-frac"),
		RenameFail: fchance(cfg.Seed, path, n, "rename") < cfg.RenameFailRate,
	}
}

// Schedule materialises the first n decisions for path — the determinism
// tests' window into the schedule without performing any I/O. Entry i is the
// decision the live injector applies to the i-th faultable operation on
// path.
func (cfg FaultConfig) Schedule(path string, n int) []FaultDecision {
	out := make([]FaultDecision, n)
	for i := range out {
		out[i] = cfg.decide(path, uint64(i))
	}
	return out
}

// fchance maps (seed, path, n, salt) to a uniform [0, 1) — the same FNV-1a
// construction as the net-fault injector, salted per fault kind so the draws
// for one operation slot are independent.
func fchance(seed int64, path string, n uint64, salt string) float64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], n)
	h.Write(buf[:])
	io.WriteString(h, path)
	io.WriteString(h, salt)
	return float64(h.Sum64()%(1<<20)) / float64(1<<20)
}

// FaultFS wraps an inner FS with the fault schedule cfg describes. Each path
// has its own operation-sequence counter, so concurrency across paths never
// perturbs a path's schedule. It is safe for concurrent use.
type FaultFS struct {
	cfg   FaultConfig
	inner FS

	enabled atomic.Bool

	mu  sync.Mutex
	seq map[string]uint64 // per-path faultable-operation counter

	enospc, eio, torn, renames *telemetry.Counter
}

// NewFaultFS wraps inner (nil means OS()) with the schedule cfg describes.
// The injector starts enabled.
func NewFaultFS(cfg FaultConfig, inner FS) *FaultFS {
	if inner == nil {
		inner = OS()
	}
	f := &FaultFS{cfg: cfg, inner: inner, seq: make(map[string]uint64)}
	f.enabled.Store(true)
	if reg := cfg.Registry; reg != nil {
		f.enospc = reg.Counter("vfs.fault.enospc")
		f.eio = reg.Counter("vfs.fault.eio")
		f.torn = reg.Counter("vfs.fault.torn")
		f.renames = reg.Counter("vfs.fault.rename_fails")
	}
	return f
}

// SetEnabled turns injection on or off at runtime — the "disk healed" lever
// the breaker-recovery tests pull. Disabled, every operation passes straight
// through without consuming schedule slots.
func (f *FaultFS) SetEnabled(on bool) { f.enabled.Store(on) }

// Enabled reports whether the injector is live.
func (f *FaultFS) Enabled() bool { return f.enabled.Load() }

// next consumes the next schedule slot for path.
func (f *FaultFS) next(path string) FaultDecision {
	f.mu.Lock()
	n := f.seq[path]
	f.seq[path] = n + 1
	f.mu.Unlock()
	return f.cfg.decide(path, n)
}

// Passthrough (unfaulted) operations.

func (f *FaultFS) MkdirAll(path string, perm iofs.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}
func (f *FaultFS) ReadFile(path string) ([]byte, error)         { return f.inner.ReadFile(path) }
func (f *FaultFS) ReadDir(path string) ([]iofs.DirEntry, error) { return f.inner.ReadDir(path) }
func (f *FaultFS) Stat(path string) (iofs.FileInfo, error)      { return f.inner.Stat(path) }
func (f *FaultFS) Remove(path string) error                     { return f.inner.Remove(path) }
func (f *FaultFS) SyncDir(path string) error                    { return f.inner.SyncDir(path) }

// Create applies the schedule's ENOSPC draw, then opens through the inner
// FS, returning a handle whose writes and syncs consume further slots on the
// same path.
func (f *FaultFS) Create(path string) (File, error) {
	if f.enabled.Load() {
		if err := f.next(path).Fault(OpCreate); err != nil {
			f.enospc.Inc()
			return nil, err
		}
	}
	inner, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, path: path, inner: inner}, nil
}

// Rename consumes a slot keyed by the source path (the temp file being
// published).
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.enabled.Load() {
		if err := f.next(oldpath).Fault(OpRename); err != nil {
			f.renames.Inc()
			return err
		}
	}
	return f.inner.Rename(oldpath, newpath)
}

// faultFile interposes on the write/sync leg of a durable write.
type faultFile struct {
	fs    *FaultFS
	path  string
	inner File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if !ff.fs.enabled.Load() {
		return ff.inner.Write(p)
	}
	d := ff.fs.next(ff.path)
	if err := d.Fault(OpWrite); err != nil {
		if errors.Is(err, syscall.ENOSPC) {
			ff.fs.enospc.Inc()
		} else {
			ff.fs.eio.Inc()
		}
		return 0, err
	}
	if d.TornWrite(OpWrite) {
		// Silent truncation: a deterministic prefix lands, the call lies
		// about it. Only content verification downstream can notice.
		ff.fs.torn.Inc()
		keep := int(d.TornFrac * float64(len(p)))
		if keep >= len(p) && len(p) > 0 {
			keep = len(p) - 1
		}
		if _, err := ff.inner.Write(p[:keep]); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if ff.fs.enabled.Load() {
		if err := ff.fs.next(ff.path).Fault(OpSync); err != nil {
			if errors.Is(err, syscall.ENOSPC) {
				ff.fs.enospc.Inc()
			} else {
				ff.fs.eio.Inc()
			}
			return err
		}
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }

// ParseFaultConfig parses the -fs-chaos flag syntax:
//
//	seed=7,enospc=0.05,eio=0.05,torn=0.02,rename=0.02
//
// Keys may appear in any order; missing keys default to zero. Unknown keys
// and malformed values are errors, so a typo'd chaos flag fails loudly
// instead of silently running a clean-disk soak.
func ParseFaultConfig(s string) (FaultConfig, error) {
	var cfg FaultConfig
	if strings.TrimSpace(s) == "" {
		return cfg, fmt.Errorf("vfs: empty fault config")
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("vfs: fault config term %q is not key=value", part)
		}
		key, val := kv[0], kv[1]
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("vfs: fault config seed %q: %w", val, err)
			}
			cfg.Seed = n
		case "enospc", "eio", "torn", "rename":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || r < 0 || r > 1 {
				return cfg, fmt.Errorf("vfs: fault config rate %s=%q: want a number in [0, 1]", key, val)
			}
			switch key {
			case "enospc":
				cfg.ENOSPCRate = r
			case "eio":
				cfg.EIORate = r
			case "torn":
				cfg.TornWriteRate = r
			case "rename":
				cfg.RenameFailRate = r
			}
		default:
			keys := []string{"seed", "enospc", "eio", "torn", "rename"}
			sort.Strings(keys)
			return cfg, fmt.Errorf("vfs: fault config key %q: want one of %s", key, strings.Join(keys, ", "))
		}
	}
	return cfg, nil
}
