package tlb

import (
	"math/rand"
	"testing"

	"afterimage/internal/mem"
)

// Fork regression suite: Fork must remap valid entries through the
// parent→child ASID table, drop the way-predictor memo, and share nothing
// mutable with the parent; Reset must return a used TLB to New's state.

func TestForkRemapsValidEntries(t *testing.T) {
	tl := New(DefaultConfig())
	va := mem.VAddr(0x40_0000)
	tl.Warm(5, va)
	if hit, _ := tl.Lookup(5, va); !hit {
		t.Fatal("warmed parent entry missing")
	}

	f := tl.Fork(func(asid uint64) uint64 {
		if asid == 5 {
			return 9
		}
		return asid
	})
	if !f.Contains(9, va) {
		t.Fatal("fork did not remap ASID 5 -> 9")
	}
	if f.Contains(5, va) {
		t.Fatal("fork kept the parent's raw ASID")
	}
	if !tl.Contains(5, va) {
		t.Fatal("forking rewrote the parent's entries")
	}
}

func TestForkDropsWayPredictor(t *testing.T) {
	tl := New(DefaultConfig())
	va := mem.VAddr(0x40_0000)
	tl.Lookup(5, va) // install
	tl.Lookup(5, va) // arm the predictor
	if !tl.predOK {
		t.Fatal("parent predictor not armed (test substrate broken)")
	}
	f := tl.Fork(nil)
	if f.predOK {
		t.Fatal("fork carried the way-predictor memo")
	}
	// The memo is location-only: the parent serves the next lookup through
	// the predictor fast path, the fork through the full scan, and both must
	// perform the exact same mutations (clock bump, stamp, hit count).
	if hit, _ := f.Lookup(5, va); !hit {
		t.Fatal("fork lost the installed entry")
	}
	if hit, _ := tl.Lookup(5, va); !hit {
		t.Fatal("parent lost the installed entry")
	}
	id := func(a uint64) uint64 { return a }
	if got, want := f.StateHash(id), tl.StateHash(id); got != want {
		t.Fatalf("fork hash %#x, parent %#x after identical lookups", got, want)
	}
}

func TestForkIndependence(t *testing.T) {
	tl := New(DefaultConfig())
	for i := 0; i < 64; i++ {
		tl.Lookup(7, mem.VAddr(i)*mem.PageSize)
	}
	id := func(a uint64) uint64 { return a }
	before := tl.StateHash(id)
	f := tl.Fork(nil)
	for i := 64; i < 256; i++ {
		f.Lookup(7, mem.VAddr(i)*mem.PageSize)
	}
	f.FlushAll()
	if got := tl.StateHash(id); got != before {
		t.Fatalf("fork activity mutated the parent: %#x -> %#x", before, got)
	}
}

// TestForkPreservesInvalidSlots: invalid ways keep their stale tags raw
// (no remap), byte-identical to the parent — so a fork's hash matches the
// parent's under the identity remap even where slots are dead.
func TestForkPreservesInvalidSlots(t *testing.T) {
	tl := New(DefaultConfig())
	for i := 0; i < 32; i++ {
		tl.Lookup(3, mem.VAddr(i)*mem.PageSize)
	}
	tl.FlushAll() // leaves stale tags in invalid slots
	id := func(a uint64) uint64 { return a }
	f := tl.Fork(nil)
	if got, want := f.StateHash(id), tl.StateHash(id); got != want {
		t.Fatalf("fork hash %#x, parent %#x (invalid-slot bytes drifted)", got, want)
	}
}

// TestResetMatchesNew: after random lookups, warms and a CorruptInsert,
// Reset leaves the TLB hashing like New(cfg), and the two stay in step,
// lookup for lookup and hash for hash, under one lookup stream.
func TestResetMatchesNew(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	next := func() (uint64, mem.VAddr) {
		return uint64(rng.Intn(4)), mem.VAddr(rng.Intn(4096)) * mem.PageSize
	}
	tl := New(cfg)
	for i := 0; i < 4096; i++ {
		if asid, va := next(); i%7 == 0 {
			tl.Warm(asid, va)
		} else {
			tl.Lookup(asid, va)
		}
	}
	tl.CorruptInsert(99, 0x123)
	tl.Reset()

	fresh := New(cfg)
	id := func(a uint64) uint64 { return a }
	if got, want := tl.StateHash(id), fresh.StateHash(id); got != want {
		t.Fatalf("reset TLB hash %#x, New %#x", got, want)
	}
	for i := 0; i < 4096; i++ {
		asid, va := next()
		hit, lat := tl.Lookup(asid, va)
		wantHit, wantLat := fresh.Lookup(asid, va)
		if hit != wantHit || lat != wantLat {
			t.Fatalf("lookup %d: reset TLB (%v, %d), New (%v, %d)", i, hit, lat, wantHit, wantLat)
		}
	}
	if got, want := tl.StateHash(id), fresh.StateHash(id); got != want {
		t.Fatalf("after one lookup stream: reset TLB hash %#x, New %#x", got, want)
	}
}
