package tlb

import (
	"testing"

	"afterimage/internal/mem"
)

func TestHitAfterMiss(t *testing.T) {
	tl := New(DefaultConfig())
	v := mem.VAddr(0x5000)
	hit, lat := tl.Lookup(1, v)
	if hit || lat != DefaultConfig().WalkLatency {
		t.Fatalf("first lookup: hit=%v lat=%d", hit, lat)
	}
	hit, lat = tl.Lookup(1, v)
	if !hit || lat != 0 {
		t.Fatalf("second lookup: hit=%v lat=%d", hit, lat)
	}
}

func TestSamePageDifferentOffsets(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Lookup(1, 0x7123)
	if hit, _ := tl.Lookup(1, 0x7FFF); !hit {
		t.Fatal("same-page offset missed")
	}
	if hit, _ := tl.Lookup(1, 0x8000); hit {
		t.Fatal("next page hit spuriously")
	}
}

func TestWarmInstallsWithoutMissCount(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Warm(1, 0x9000)
	if tl.misses != 0 {
		t.Fatalf("Warm counted a miss")
	}
	if hit, _ := tl.Lookup(1, 0x9000); !hit {
		t.Fatal("warmed page missed")
	}
	if !tl.Contains(1, 0x9000) {
		t.Fatal("Contains false after warm")
	}
}

func TestFlushAll(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Warm(1, 0x9000)
	tl.FlushAll()
	if tl.Contains(1, 0x9000) {
		t.Fatal("entry survived FlushAll")
	}
}

func TestCapacityEviction(t *testing.T) {
	cfg := Config{Entries: 8, Ways: 2, WalkLatency: 7}
	tl := New(cfg)
	// Fill one set (pages congruent mod 4 sets) beyond capacity.
	for i := uint64(0); i < 3; i++ {
		tl.Warm(1, mem.VAddr(i*4*mem.PageSize))
	}
	evicted := 0
	for i := uint64(0); i < 3; i++ {
		if !tl.Contains(1, mem.VAddr(i*4*mem.PageSize)) {
			evicted++
		}
	}
	if evicted != 1 {
		t.Fatalf("evicted %d entries from a 2-way set holding 3, want 1", evicted)
	}
}

func TestLRUWithinSet(t *testing.T) {
	cfg := Config{Entries: 8, Ways: 2, WalkLatency: 7}
	tl := New(cfg)
	a := mem.VAddr(0 * 4 * mem.PageSize)
	b := mem.VAddr(1 * 4 * mem.PageSize)
	c := mem.VAddr(2 * 4 * mem.PageSize)
	tl.Lookup(1, a)
	tl.Lookup(1, b)
	tl.Lookup(1, a) // a MRU
	tl.Lookup(1, c) // evicts b
	if !tl.Contains(1, a) || tl.Contains(1, b) || !tl.Contains(1, c) {
		t.Fatalf("LRU violated: a=%v b=%v c=%v", tl.Contains(1, a), tl.Contains(1, b), tl.Contains(1, c))
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	New(Config{Entries: 7, Ways: 2})
}

func TestSTLBCoversL1Evictions(t *testing.T) {
	cfg := Config{Entries: 8, Ways: 2, WalkLatency: 7, STLBEntries: 64, STLBWays: 4, STLBLatency: 9}
	tl := New(cfg)
	// Three pages congruent in the 4-set dTLB: the third evicts the first
	// from the dTLB, but the STLB still covers it.
	a := mem.VAddr(0 * 4 * mem.PageSize)
	b := mem.VAddr(1 * 4 * mem.PageSize)
	c := mem.VAddr(2 * 4 * mem.PageSize)
	tl.Lookup(1, a)
	tl.Lookup(1, b)
	tl.Lookup(1, c) // a evicted from dTLB
	hit, lat := tl.Lookup(1, a)
	if !hit {
		t.Fatal("STLB did not cover a dTLB eviction")
	}
	if lat != cfg.STLBLatency {
		t.Fatalf("STLB hit latency = %d, want %d", lat, cfg.STLBLatency)
	}
	if tl.STLBHits() != 1 {
		t.Fatalf("STLBHits = %d", tl.STLBHits())
	}
}

func TestSTLBDisabledFallsBackToWalk(t *testing.T) {
	cfg := Config{Entries: 8, Ways: 2, WalkLatency: 7}
	tl := New(cfg)
	a := mem.VAddr(0 * 4 * mem.PageSize)
	tl.Lookup(1, a)
	tl.Lookup(1, mem.VAddr(1*4*mem.PageSize))
	tl.Lookup(1, mem.VAddr(2*4*mem.PageSize))
	if hit, lat := tl.Lookup(1, a); hit || lat != cfg.WalkLatency {
		t.Fatalf("no-STLB eviction: hit=%v lat=%d", hit, lat)
	}
}

func TestSTLBFlushedByFlushAll(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Warm(1, 0x9000)
	tl.FlushAll()
	if tl.Contains(1, 0x9000) {
		t.Fatal("translation survived FlushAll with STLB enabled")
	}
}

func TestDefaultConfigHasSTLB(t *testing.T) {
	if DefaultConfig().STLBEntries != 1536 {
		t.Fatal("default config lost its STLB")
	}
}

// TestTLBStateHashNormalization: two TLBs holding the same translations
// under different raw ASIDs hash identically once the normalizer maps them
// to the same stable IDs — the property that makes machine hashes
// comparable across process-global ASID allocation order.
func TestTLBStateHashNormalization(t *testing.T) {
	a, b := New(DefaultConfig()), New(DefaultConfig())
	for i := uint64(0); i < 8; i++ {
		a.Lookup(101, mem.VAddr(0x5000_0000+i*mem.PageSize))
		b.Lookup(202, mem.VAddr(0x5000_0000+i*mem.PageSize))
	}
	if a.StateHash(nil) == b.StateHash(nil) {
		t.Fatal("distinct raw ASIDs hashed identically without normalization")
	}
	norm := func(want uint64) func(uint64) uint64 {
		return func(asid uint64) uint64 {
			if asid == want {
				return 1
			}
			return asid
		}
	}
	if a.StateHash(norm(101)) != b.StateHash(norm(202)) {
		t.Fatal("normalized hashes differ for identical translation state")
	}
}
