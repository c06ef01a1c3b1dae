package cache

import (
	"math/rand"
	"slices"
	"testing"

	"afterimage/internal/mem"
)

func forkTestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(HierarchyConfig{
		L1: Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8,
			LineSize: mem.LineSize, Policy: TreePLRU},
		L2: Config{Name: "L2", SizeBytes: 256 << 10, Ways: 4,
			LineSize: mem.LineSize, Policy: TreePLRU},
		LLC: Config{Name: "LLC", SizeBytes: 2 << 20, Ways: 16,
			LineSize: mem.LineSize, Policy: LRU},
		Lat: Latencies{L1: 4, L2: 14, LLC: 44, DRAM: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func hierarchyHash(h *Hierarchy) [3]uint64 {
	return [3]uint64{h.L1.StateHash(), h.L2.StateHash(), h.LLC.StateHash()}
}

// TestHierarchyForkBitIdentical: a fork hashes identically to its parent at
// every level, and an identical load stream applied to both keeps them
// identical — hit levels, latencies and final hashes.
func TestHierarchyForkBitIdentical(t *testing.T) {
	h := forkTestHierarchy(t)
	for i := 0; i < 4096; i++ {
		h.Load(mem.PAddr(i%1500) * mem.LineSize)
	}
	f := h.Fork()
	if hierarchyHash(f) != hierarchyHash(h) {
		t.Fatal("fork hashes differ from parent at rest")
	}
	for i := 0; i < 2048; i++ {
		pa := mem.PAddr((i*7)%3000) * mem.LineSize
		la, ca := h.Load(pa)
		lb, cb := f.Load(pa)
		if la != lb || ca != cb {
			t.Fatalf("load %d: parent (%v,%d), fork (%v,%d)", i, la, ca, lb, cb)
		}
	}
	if hierarchyHash(f) != hierarchyHash(h) {
		t.Fatal("fork diverged from parent under an identical load stream")
	}
}

// TestCacheForkDropsWayPredictor: Fork resets the one-entry way-predictor
// memo. The memo caches only a location, so its absence must not change
// observable state — verified by the hash equality in
// TestHierarchyForkBitIdentical; here we pin the reset itself.
func TestCacheForkDropsWayPredictor(t *testing.T) {
	h := forkTestHierarchy(t)
	pa := mem.PAddr(64) * mem.LineSize
	h.Load(pa)
	h.Load(pa) // hit: arms the L1 predictor
	if !h.L1.predOK {
		t.Fatal("parent predictor not armed (test substrate broken)")
	}
	f := h.Fork()
	for name, c := range map[string]*Cache{"L1": f.L1, "L2": f.L2, "LLC": f.LLC} {
		if c.predOK {
			t.Fatalf("%s fork carried the way-predictor memo", name)
		}
	}
	if !h.L1.predOK {
		t.Fatal("forking cleared the parent's predictor")
	}
}

// TestCacheForkIndependence: loads and flushes on the fork leave the parent
// byte-identical, and vice versa — the slices must be copies, the policy
// state per-fork, and only the tree tables (immutable) shared.
func TestCacheForkIndependence(t *testing.T) {
	h := forkTestHierarchy(t)
	for i := 0; i < 1024; i++ {
		h.Load(mem.PAddr(i) * mem.LineSize)
	}
	before := hierarchyHash(h)
	f := h.Fork()
	for i := 1024; i < 4096; i++ {
		f.Load(mem.PAddr(i) * mem.LineSize)
	}
	f.Flush(mem.PAddr(512) * mem.LineSize)
	if hierarchyHash(h) != before {
		t.Fatal("fork activity mutated the parent")
	}
	fAfter := hierarchyHash(f)
	h.Load(mem.PAddr(9000) * mem.LineSize)
	if hierarchyHash(f) != fAfter {
		t.Fatal("parent activity mutated the fork")
	}
}

// TestCacheForkAllPolicies forks a populated cache under every replacement
// policy, so the clone of each policy's state (LRU and FIFO stamps,
// Bit-PLRU bits, Tree-PLRU words, Random sources at their draw position)
// is exercised: the fork hashes as its parent at rest, an identical access
// stream gives identical hits and hashes, divergence on either side is
// invisible to the other, and both audits stay clean.
func TestCacheForkAllPolicies(t *testing.T) {
	// touch accesses p and fills it on a miss, reporting the hit.
	touch := func(c *Cache, p mem.PAddr) bool {
		if c.Access(p) {
			return true
		}
		c.Fill(p)
		return false
	}
	for _, pol := range []PolicyKind{LRU, FIFO, BitPLRU, TreePLRU, RandomPolicy} {
		t.Run(pol.String(), func(t *testing.T) {
			c := MustNew(small(pol))
			for i := uint64(0); i < 40; i++ {
				touch(c, mem.PAddr(i*0x240))
			}
			f := c.Fork()
			if f.StateHash() != c.StateHash() {
				t.Fatal("fork hash differs from parent at rest")
			}

			// 97 lines over 16 sets of 4 ways: the stream keeps evicting,
			// so every victim choice is compared.
			for i := uint64(0); i < 400; i++ {
				p := mem.PAddr(i * 7 % 97 * 0x40)
				if a, b := touch(c, p), touch(f, p); a != b {
					t.Fatalf("access %d (%#x): parent hit=%v, fork hit=%v", i, uint64(p), a, b)
				}
			}
			if f.StateHash() != c.StateHash() {
				t.Fatal("fork diverged from parent under an identical stream")
			}

			before := c.StateHash()
			for i := uint64(0); i < 64; i++ {
				touch(f, mem.PAddr(0x80000+i*0x40))
			}
			if c.StateHash() != before {
				t.Fatal("fork activity mutated the parent")
			}
			forked := f.StateHash()
			if forked == before {
				t.Fatal("fork hash unchanged by its own activity")
			}
			for i := uint64(0); i < 64; i++ {
				touch(c, mem.PAddr(0x90000+i*0x40))
			}
			if f.StateHash() != forked {
				t.Fatal("parent activity mutated the fork")
			}

			for name, x := range map[string]*Cache{"parent": c, "fork": f} {
				if errs := x.Audit(); len(errs) != 0 {
					t.Fatalf("%s fails audit: %v", name, errs)
				}
			}
		})
	}
}

// TestCacheResetFromAllPolicies: under every replacement policy, a fork
// that diverges and is then reset from its origin copies back only the
// sets it dirtied, in place, and is again indistinguishable from a fresh
// fork: same hash at rest, same hits and hashes under an identical stream,
// clean audits. Resetting from a cache that is not the origin copies whole,
// into the level's own arrays.
func TestCacheResetFromAllPolicies(t *testing.T) {
	touch := func(c *Cache, p mem.PAddr) bool {
		if c.Access(p) {
			return true
		}
		c.FillPrefetch(p)
		return false
	}
	for _, pol := range []PolicyKind{LRU, FIFO, BitPLRU, TreePLRU, RandomPolicy} {
		t.Run(pol.String(), func(t *testing.T) {
			c := MustNew(small(pol))
			for i := uint64(0); i < 40; i++ {
				touch(c, mem.PAddr(i*0x240))
			}
			f := c.Fork()
			for i := uint64(0); i < 200; i++ {
				touch(f, mem.PAddr(i*5%61*0x40))
				if i%7 == 0 {
					f.Remove(mem.PAddr(i * 0x240))
				}
			}
			lines := &f.lines[0]
			f.copyFrom(c, true)
			if &f.lines[0] != lines {
				t.Fatal("reset from the origin did not copy in place")
			}
			ref := c.Fork()
			if f.StateHash() != ref.StateHash() {
				t.Fatal("reset cache hash differs from a fresh fork")
			}
			for i := uint64(0); i < 400; i++ {
				p := mem.PAddr(i * 7 % 97 * 0x40)
				if a, b := touch(f, p), touch(ref, p); a != b {
					t.Fatalf("access %d: reset hit=%v, fork hit=%v", i, a, b)
				}
			}
			if f.StateHash() != ref.StateHash() || len(f.Audit()) != 0 {
				t.Fatal("reset cache diverged from a fresh fork under an identical stream")
			}

			// ref is not f's origin: the reset copies every array, in
			// place, whether or not the caller asks for the dirty sets.
			for _, dirtyOnly := range []bool{true, false} {
				f.copyFrom(ref, dirtyOnly)
				if f.StateHash() != ref.StateHash() || f.origin != ref {
					t.Fatal("whole-copy reset differs from its source")
				}
				if &f.lines[0] != lines {
					t.Fatal("whole-copy reset did not reuse the level's arrays")
				}
				randomOps(f, 5, 50)
			}
		})
	}
}

// TestHierarchyAuditFromOnlyChecksDirtySets pins AuditFrom's contract: a
// level whose origin is src's is checked over its dirty sets only, so
// corruption planted past the writers into a clean set goes unseen there
// and is still caught by Audit and by AuditFrom against another source.
func TestHierarchyAuditFromOnlyChecksDirtySets(t *testing.T) {
	h := forkTestHierarchy(t)
	for i := 0; i < 4096; i++ {
		h.Load(mem.PAddr(i%1500) * mem.LineSize)
	}
	f := h.Fork()
	f.Load(mem.PAddr(9000) * mem.LineSize)
	g := f.LLC.gsetOfLine(9000)
	clean := (g + 1) % (f.LLC.nslices * int(f.LLC.nsets))
	if f.LLC.dirty[clean>>6]&(1<<(uint(clean)&63)) != 0 {
		t.Fatal("test premise: neighbour set dirty")
	}
	f.LLC.pol.stamps[clean*f.LLC.ways] = f.LLC.pol.clocks[clean] + 1
	if errs := f.AuditFrom(h); len(errs) != 0 {
		t.Fatalf("AuditFrom checked a clean set: %v", errs)
	}
	if len(f.Audit()) != 1 || len(f.AuditFrom(f.Fork())) != 1 {
		t.Fatal("the planted stamp escaped the whole audit")
	}
	f.LLC.markDirty(clean)
	if errs := f.AuditFrom(h); len(errs) != 1 {
		t.Fatalf("AuditFrom over the dirtied set: %v", errs)
	}
}

// randomOps applies n seed-derived accesses, demand and prefetch fills and
// removes to c over 120 lines that share 12 set indexes, so sets evict
// while most of c's 256 sets stay clean. It returns the access hits.
func randomOps(c *Cache, seed int64, n int) []bool {
	rng := rand.New(rand.NewSource(seed))
	var hits []bool
	for i := 0; i < n; i++ {
		p := mem.PAddr(uint64(rng.Intn(12))+uint64(rng.Intn(10))*128) * mem.LineSize
		switch rng.Intn(4) {
		case 0:
			c.Fill(p)
		case 1:
			c.FillPrefetch(p)
		case 2:
			c.Remove(p)
		default:
			hits = append(hits, c.Access(p))
		}
	}
	return hits
}

// TestBootedStateHashMatchesFork: on a level whose origin is nil, StateHash
// folds each clean set as the constructor state's zeros without reading
// it, and Audit checks only the dirty sets. Under every replacement policy
// the hash must equal that of the level's fork, which folds every set: at
// construction, after random operations, and after boot, the
// reset to the constructor state, which must also hash like a new level
// and behave like one (a Random set's source reseeded). A forked level
// reset to the constructor state clears every set and passes the same
// checks.
func TestBootedStateHashMatchesFork(t *testing.T) {
	for _, pol := range []PolicyKind{LRU, FIFO, BitPLRU, TreePLRU, RandomPolicy} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{Name: "t", SizeBytes: 64 << 10, Ways: 4, LineSize: 64,
				Slices: 2, Policy: pol, PolicySeed: 9}
			newHash := MustNew(cfg).StateHash()
			requireForkHash := func(what string, c *Cache) {
				t.Helper()
				if got, want := c.StateHash(), c.Fork().StateHash(); got != want {
					t.Fatalf("%s: hash %#x, its fork's full fold %#x", what, got, want)
				}
				if errs := c.Audit(); len(errs) != 0 {
					t.Fatalf("%s: audit %v", what, errs)
				}
			}
			requireNew := func(what string, c *Cache) {
				t.Helper()
				requireForkHash(what, c)
				if c.origin != nil || c.StateHash() != newHash {
					t.Fatalf("%s: not the constructor state", what)
				}
				fresh := MustNew(cfg)
				got, want := randomOps(c, 3, 600), randomOps(fresh, 3, 600)
				if !slices.Equal(got, want) || c.StateHash() != fresh.StateHash() {
					t.Fatalf("%s: diverged from a new level under an identical stream", what)
				}
				requireForkHash(what+", then the stream", c)
			}

			c := MustNew(cfg)
			requireForkHash("new level", c)
			randomOps(c, 1, 2000)
			requireForkHash("after random operations", c)
			c.boot()
			requireNew("after a reset to the constructor state", c)

			f := c.Fork()
			randomOps(f, 2, 2000)
			f.boot()
			requireNew("forked level after a reset to the constructor state", f)
		})
	}
}
