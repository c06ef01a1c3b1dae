package vfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"afterimage/internal/telemetry"
)

// TestFaultScheduleDeterministic: the injector's fault schedule is a pure
// function of (seed, path, sequence, rates) — two configs with the same
// parameters produce byte-identical decision tables, which is what lets a
// disk-chaos failure be replayed by seed.
func TestFaultScheduleDeterministic(t *testing.T) {
	cfg := FaultConfig{Seed: 42, ENOSPCRate: 0.3, EIORate: 0.2, TornWriteRate: 0.2, RenameFailRate: 0.1}
	a := cfg.Schedule("/store/ab/key.entry.tmp", 256)
	b := cfg.Schedule("/store/ab/key.entry.tmp", 256)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed/path/config produced different schedules")
	}
}

// TestFaultScheduleVariesBySeedAndPath: changing the seed or the path changes
// the schedule — faults are not synchronized across entries, and two seeds
// explore different failure interleavings.
func TestFaultScheduleVariesBySeedAndPath(t *testing.T) {
	base := FaultConfig{Seed: 1, ENOSPCRate: 0.5, EIORate: 0.5, TornWriteRate: 0.5, RenameFailRate: 0.5}
	ref := base.Schedule("/a", 256)

	other := base
	other.Seed = 2
	if reflect.DeepEqual(ref, other.Schedule("/a", 256)) {
		t.Error("different seeds produced identical schedules")
	}
	if reflect.DeepEqual(ref, base.Schedule("/b", 256)) {
		t.Error("different paths produced identical schedules")
	}
}

// TestFaultScheduleInvariants: table-driven over rate corners. ENOSPC shadows
// EIO and torn writes on write-path operations; rate 0 and rate 1 behave as
// exact never/always; torn fractions stay in [0, 1).
func TestFaultScheduleInvariants(t *testing.T) {
	cases := []struct {
		name string
		cfg  FaultConfig
		// predicates over the 256-entry schedule, resolved per op
		wantCreateAlways bool // Create faults on every slot
		wantCreateNever  bool
		wantWriteErrno   error // non-nil: every Write slot faults with this errno
		wantWriteClean   bool  // every Write slot passes (no error, maybe torn)
		wantAllTorn      bool
		wantNoTorn       bool
		wantRenameAlways bool
		wantRenameNever  bool
	}{
		{
			name:            "all zero rates: clean disk",
			cfg:             FaultConfig{Seed: 7},
			wantCreateNever: true,
			wantWriteClean:  true,
			wantNoTorn:      true,
			wantRenameNever: true,
		},
		{
			name:             "enospc=1 shadows eio and torn on writes",
			cfg:              FaultConfig{Seed: 7, ENOSPCRate: 1, EIORate: 1, TornWriteRate: 1},
			wantCreateAlways: true,
			wantWriteErrno:   syscall.ENOSPC,
			wantNoTorn:       true,
			wantRenameNever:  true,
		},
		{
			name:            "eio=1 without enospc",
			cfg:             FaultConfig{Seed: 7, EIORate: 1, TornWriteRate: 1},
			wantCreateNever: true,
			wantWriteErrno:  syscall.EIO,
			wantNoTorn:      true,
		},
		{
			name:            "torn=1 alone: silent truncation, no errors",
			cfg:             FaultConfig{Seed: 7, TornWriteRate: 1},
			wantCreateNever: true,
			wantWriteClean:  true,
			wantAllTorn:     true,
			wantRenameNever: true,
		},
		{
			name:             "rename=1 faults only renames",
			cfg:              FaultConfig{Seed: 7, RenameFailRate: 1},
			wantCreateNever:  true,
			wantWriteClean:   true,
			wantNoTorn:       true,
			wantRenameAlways: true,
		},
		{
			name: "mixed rates keep precedence",
			cfg:  FaultConfig{Seed: 9, ENOSPCRate: 0.5, EIORate: 0.9, TornWriteRate: 0.9, RenameFailRate: 0.3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := tc.cfg.Schedule("/p", 256)
			if len(sched) != 256 {
				t.Fatalf("schedule length %d, want 256", len(sched))
			}
			for i, d := range sched {
				if d.TornFrac < 0 || d.TornFrac >= 1 {
					t.Fatalf("entry %d: TornFrac %v outside [0, 1)", i, d.TornFrac)
				}
				if d.ENOSPC && d.Fault(OpWrite) != nil && !errors.Is(d.Fault(OpWrite), syscall.ENOSPC) {
					t.Fatalf("entry %d: ENOSPC draw did not shadow EIO: %v", i, d.Fault(OpWrite))
				}
				if d.TornWrite(OpWrite) && d.Fault(OpWrite) != nil {
					t.Fatalf("entry %d: torn write alongside a write error", i)
				}
				if tc.wantCreateAlways && d.Fault(OpCreate) == nil {
					t.Fatalf("entry %d: want create fault", i)
				}
				if tc.wantCreateNever && d.Fault(OpCreate) != nil {
					t.Fatalf("entry %d: unexpected create fault %v", i, d.Fault(OpCreate))
				}
				if tc.wantWriteErrno != nil && !errors.Is(d.Fault(OpWrite), tc.wantWriteErrno) {
					t.Fatalf("entry %d: write fault %v, want %v", i, d.Fault(OpWrite), tc.wantWriteErrno)
				}
				if tc.wantWriteClean && d.Fault(OpWrite) != nil {
					t.Fatalf("entry %d: unexpected write fault %v", i, d.Fault(OpWrite))
				}
				if tc.wantAllTorn && !d.TornWrite(OpWrite) {
					t.Fatalf("entry %d: want torn write", i)
				}
				if tc.wantNoTorn && d.TornWrite(OpWrite) {
					t.Fatalf("entry %d: unexpected torn write", i)
				}
				if tc.wantRenameAlways && d.Fault(OpRename) == nil {
					t.Fatalf("entry %d: want rename fault", i)
				}
				if tc.wantRenameNever && d.Fault(OpRename) != nil {
					t.Fatalf("entry %d: unexpected rename fault %v", i, d.Fault(OpRename))
				}
			}
		})
	}
}

// TestFaultFSMatchesSchedule: the live FaultFS consumes the same
// deterministic schedule Schedule() predicts — operation k on a path faults
// iff the table says so, torn writes truncate to exactly the predicted
// prefix, and the vfs.fault.* counters account for every injection.
func TestFaultFSMatchesSchedule(t *testing.T) {
	// The schedule is keyed by path, so the test works in a temporary
	// directory through relative names: an absolute path would carry the
	// directory's random name and make the seed's schedule vary per run.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	reg := telemetry.NewRegistry()
	cfg := FaultConfig{Seed: 99, ENOSPCRate: 0.18, EIORate: 0.18, TornWriteRate: 0.18, RenameFailRate: 0.18, Registry: reg}
	fsys := NewFaultFS(cfg, OS())

	tmp, final := "entry.tmp", "entry"
	payload := []byte("0123456789abcdef0123456789abcdef")
	sched := cfg.Schedule(tmp, 512)

	var wantENOSPC, wantEIO, wantTorn, wantRename uint64
	k := 0
	next := func() FaultDecision { d := sched[k]; k++; return d }
	published := 0
	for attempt := 0; attempt < 64; attempt++ {
		os.Remove(final)
		f, err := fsys.Create(tmp)
		if d := next(); d.Fault(OpCreate) != nil {
			wantENOSPC++
			if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
				t.Fatalf("attempt %d: create err %v, schedule says ENOSPC", attempt, err)
			}
			continue
		} else if err != nil {
			t.Fatalf("attempt %d: create failed off-schedule: %v", attempt, err)
		}

		n, err := f.Write(payload)
		d := next()
		if werr := d.Fault(OpWrite); werr != nil {
			if errors.Is(werr, syscall.ENOSPC) {
				wantENOSPC++
			} else {
				wantEIO++
			}
			if err == nil || !errors.Is(err, ErrInjected) {
				t.Fatalf("attempt %d: write err %v, schedule says %v", attempt, err, werr)
			}
			f.Close()
			continue
		}
		if err != nil || n != len(payload) {
			t.Fatalf("attempt %d: write = (%d, %v), schedule says clean", attempt, n, err)
		}
		torn := d.TornWrite(OpWrite)
		tornKeep := int(d.TornFrac * float64(len(payload)))
		if tornKeep >= len(payload) {
			tornKeep = len(payload) - 1
		}
		if torn {
			wantTorn++
		}

		err = f.Sync()
		if d := next(); d.Fault(OpSync) != nil {
			if errors.Is(d.Fault(OpSync), syscall.ENOSPC) {
				wantENOSPC++
			} else {
				wantEIO++
			}
			if err == nil {
				t.Fatalf("attempt %d: sync succeeded, schedule says fault", attempt)
			}
			f.Close()
			continue
		} else if err != nil {
			t.Fatalf("attempt %d: sync failed off-schedule: %v", attempt, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("attempt %d: close: %v", attempt, err)
		}

		err = fsys.Rename(tmp, final)
		if d := next(); d.Fault(OpRename) != nil {
			wantRename++
			if err == nil {
				t.Fatalf("attempt %d: rename succeeded, schedule says fault", attempt)
			}
			continue
		} else if err != nil {
			t.Fatalf("attempt %d: rename failed off-schedule: %v", attempt, err)
		}

		got, err := os.ReadFile(final)
		if err != nil {
			t.Fatalf("attempt %d: read published file: %v", attempt, err)
		}
		if torn {
			if !bytes.Equal(got, payload[:tornKeep]) {
				t.Fatalf("attempt %d: torn write kept %d bytes, schedule says %d", attempt, len(got), tornKeep)
			}
		} else if !bytes.Equal(got, payload) {
			t.Fatalf("attempt %d: published bytes differ", attempt)
		}
		published++
	}

	if published == 0 {
		t.Fatal("seed published nothing in 64 attempts; pick another seed")
	}
	for _, kind := range []struct {
		name string
		want uint64
	}{
		{"vfs.fault.enospc", wantENOSPC},
		{"vfs.fault.eio", wantEIO},
		{"vfs.fault.torn", wantTorn},
		{"vfs.fault.rename_fails", wantRename},
	} {
		if kind.want == 0 {
			t.Errorf("seed exercised no %s faults in 64 attempts; pick another seed", kind.name)
		}
		if got := reg.Snapshot().Counters[kind.name]; got != kind.want {
			t.Errorf("%s = %d, want %d", kind.name, got, kind.want)
		}
	}
}

// TestFaultFSDisabled: SetEnabled(false) passes everything through without
// consuming schedule slots, and re-enabling resumes the schedule where it
// left off — the injector models a disk that heals and relapses.
func TestFaultFSDisabled(t *testing.T) {
	dir := t.TempDir()
	cfg := FaultConfig{Seed: 3, ENOSPCRate: 1}
	fsys := NewFaultFS(cfg, OS())
	p := filepath.Join(dir, "f")

	if _, err := fsys.Create(p); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("enabled create err = %v, want ENOSPC", err)
	}
	fsys.SetEnabled(false)
	f, err := fsys.Create(p)
	if err != nil {
		t.Fatalf("disabled create failed: %v", err)
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("disabled write failed: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("disabled sync failed: %v", err)
	}
	f.Close()
	fsys.SetEnabled(true)
	if !fsys.Enabled() {
		t.Fatal("Enabled() false after SetEnabled(true)")
	}
	if _, err := fsys.Create(p); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("re-enabled create err = %v, want ENOSPC", err)
	}
}

// TestParseFaultConfig: the -fs-chaos flag syntax round-trips and malformed
// inputs fail loudly instead of silently running a clean-disk soak.
func TestParseFaultConfig(t *testing.T) {
	cfg, err := ParseFaultConfig("seed=7,enospc=0.05,eio=0.1,torn=0.02,rename=0.03")
	if err != nil {
		t.Fatalf("ParseFaultConfig: %v", err)
	}
	want := FaultConfig{Seed: 7, ENOSPCRate: 0.05, EIORate: 0.1, TornWriteRate: 0.02, RenameFailRate: 0.03}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if _, err := ParseFaultConfig("seed=9"); err != nil {
		t.Fatalf("partial config rejected: %v", err)
	}
	for _, bad := range []string{
		"",
		"seed",
		"seed=x",
		"enospc=2",
		"eio=-0.1",
		"unknown=1",
		"torn=0.5,bogus",
	} {
		if _, err := ParseFaultConfig(bad); err == nil {
			t.Errorf("ParseFaultConfig(%q) accepted malformed input", bad)
		}
	}
}

// TestOSRoundTrip exercises the passthrough FS end to end: the atomic
// durable-write sequence the store and checkpoint writers perform, plus the
// read-side surface.
func TestOSRoundTrip(t *testing.T) {
	fsys := OS()
	dir := filepath.Join(t.TempDir(), "a", "b")
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "x.tmp")
	final := filepath.Join(dir, "x")
	f, err := fsys.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := fsys.ReadFile(final)
	if err != nil || string(got) != "payload" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "x" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	fi, err := fsys.Stat(final)
	if err != nil || fi.Size() != int64(len("payload")) {
		t.Fatalf("Stat = %v, %v", fi, err)
	}
	if err := fsys.Remove(final); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(final); !os.IsNotExist(err) {
		t.Fatalf("Stat after Remove: %v", err)
	}
}

// TestInjectedErrorShape: injected faults are recognisable both as injected
// (ErrInjected) and as their errno (syscall.ENOSPC / syscall.EIO), and their
// text names the operation.
func TestInjectedErrorShape(t *testing.T) {
	d := FaultDecision{ENOSPC: true}
	err := d.Fault(OpWrite)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ENOSPC fault chain wrong: %v", err)
	}
	if !strings.Contains(err.Error(), "write") {
		t.Fatalf("fault text %q does not name the op", err)
	}
	if derr := (FaultDecision{RenameFail: true}).Fault(OpRename); !errors.Is(derr, syscall.EIO) {
		t.Fatalf("rename fault chain wrong: %v", derr)
	}
}
