package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"afterimage/internal/mem"
)

func small(policy PolicyKind) Config {
	return Config{Name: "t", SizeBytes: 4 << 10, Ways: 4, LineSize: 64, Policy: policy}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("zero config validated")
	}
	bad := small(LRU)
	bad.SizeBytes = 4<<10 + 64
	if err := bad.Validate(); err == nil {
		t.Fatal("indivisible size validated")
	}
	if err := small(LRU).Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestFillAndLookup(t *testing.T) {
	c := MustNew(small(LRU))
	p := mem.PAddr(0x1000)
	if c.Access(p) {
		t.Fatal("hit on empty cache")
	}
	c.Fill(p)
	if !c.Access(p) {
		t.Fatal("miss after fill")
	}
	if !c.Contains(p) {
		t.Fatal("Contains false after fill")
	}
	if !c.Remove(p) {
		t.Fatal("Remove failed")
	}
	if c.Contains(p) {
		t.Fatal("Contains true after remove")
	}
}

func TestSameLineDifferentBytes(t *testing.T) {
	c := MustNew(small(LRU))
	c.Fill(0x1000)
	if !c.Access(0x103F) {
		t.Fatal("same-line different-offset access missed")
	}
	if c.Access(0x1040) {
		t.Fatal("next-line access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(small(LRU)) // 16 sets, 4 ways
	// Five lines mapping to set 0: line addresses are multiples of 16 lines.
	setStride := uint64(16 * 64)
	for i := uint64(0); i < 4; i++ {
		c.Fill(mem.PAddr(i * setStride))
	}
	// Touch line 0 to make it MRU; fill a fifth line.
	c.Access(0)
	ev, ok := c.Fill(mem.PAddr(4 * setStride))
	if !ok {
		t.Fatal("no eviction from full set")
	}
	if ev != 1*16 { // line address of the LRU victim (i=1)
		t.Fatalf("evicted line %d, want %d", ev, 16)
	}
	if !c.Contains(0) {
		t.Fatal("MRU line evicted")
	}
}

func TestSliceHashStability(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for pa := uint64(0); pa < 1<<20; pa += 4096 + 64 {
			h1 := SliceHash(pa, n)
			h2 := SliceHash(pa, n)
			if h1 != h2 {
				t.Fatalf("hash unstable for %#x", pa)
			}
			if h1 < 0 || h1 >= n {
				t.Fatalf("hash %d out of range for n=%d", h1, n)
			}
		}
	}
}

func TestSliceHashSpreads(t *testing.T) {
	counts := make([]int, 8)
	for pa := uint64(0); pa < 1<<24; pa += 64 {
		counts[SliceHash(pa, 8)]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	for s, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.08 || frac > 0.18 {
			t.Fatalf("slice %d holds %.1f%% of lines; want near 12.5%%", s, frac*100)
		}
	}
}

func TestHierarchyInclusive(t *testing.T) {
	cfg := HierarchyConfig{
		L1:  Config{Name: "L1", SizeBytes: 1 << 10, Ways: 2, LineSize: 64, Policy: LRU},
		L2:  Config{Name: "L2", SizeBytes: 2 << 10, Ways: 2, LineSize: 64, Policy: LRU},
		LLC: Config{Name: "LLC", SizeBytes: 4 << 10, Ways: 2, LineSize: 64, Policy: LRU},
		Lat: Latencies{L1: 4, L2: 12, LLC: 40, DRAM: 200},
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := mem.PAddr(0x4000)
	if lvl, lat := h.Load(p); lvl != LevelDRAM || lat != 200 {
		t.Fatalf("cold load: %v/%d", lvl, lat)
	}
	if lvl, lat := h.Load(p); lvl != LevelL1 || lat != 4 {
		t.Fatalf("warm load: %v/%d", lvl, lat)
	}
	// Evict p from the LLC by filling its set (2 ways, 32 sets/LLC).
	llcSetStride := uint64(h.LLC.NumSets() * 64)
	for i := uint64(1); i <= 2; i++ {
		h.Fill(p + mem.PAddr(i*llcSetStride))
	}
	if h.L1.Contains(p) || h.L2.Contains(p) {
		t.Fatal("inclusivity violated: inner levels kept an LLC-evicted line")
	}
}

func TestHierarchyFlush(t *testing.T) {
	cfg := HierarchyConfig{
		L1:  Config{Name: "L1", SizeBytes: 1 << 10, Ways: 2, LineSize: 64, Policy: LRU},
		L2:  Config{Name: "L2", SizeBytes: 2 << 10, Ways: 2, LineSize: 64, Policy: LRU},
		LLC: Config{Name: "LLC", SizeBytes: 4 << 10, Ways: 2, LineSize: 64, Policy: LRU},
		Lat: Latencies{L1: 4, L2: 12, LLC: 40, DRAM: 200},
	}
	h, _ := NewHierarchy(cfg)
	p := mem.PAddr(0x8000)
	h.Load(p)
	h.Flush(p)
	if h.Contains(p) {
		t.Fatal("line survived clflush")
	}
	if lvl := h.Probe(p); lvl != LevelDRAM {
		t.Fatalf("probe after flush: %v", lvl)
	}
}

func TestProbeIsNonDestructive(t *testing.T) {
	c := MustNew(small(LRU))
	c.Fill(0x1000)
	h0, m0 := c.hits, c.misses
	c.Contains(0x1000)
	c.Contains(0x2000)
	if c.hits != h0 || c.misses != m0 {
		t.Fatal("Contains changed stats")
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	cfg := Config{Name: "cfl-llc", SizeBytes: 12 << 20, Ways: 16, LineSize: 64, Policy: LRU, Slices: 8}
	c := MustNew(cfg)
	if c.NumSets() != 1536 {
		t.Fatalf("sets = %d, want 1536", c.NumSets())
	}
	// Fill and find lines across the modulo boundary.
	for i := uint64(0); i < 4000; i++ {
		p := mem.PAddr(i * 64)
		c.Fill(p)
		if !c.Contains(p) {
			t.Fatalf("line %d lost right after fill", i)
		}
	}
}

// onePolicy builds a one-set engine of the given kind, the shape the
// IP-stride prefetcher's history table uses.
func onePolicy(kind PolicyKind, ways int, seed int64) *PolicyArray {
	return NewPolicyArray(kind, 1, ways, func(int) int64 { return seed })
}

// TestPoliciesQuick property-tests every replacement policy: victims are
// always in range and a freshly touched way is never the immediate victim
// (except for FIFO and Random, which ignore recency).
func TestPoliciesQuick(t *testing.T) {
	kinds := []PolicyKind{LRU, FIFO, BitPLRU, TreePLRU, RandomPolicy}
	for _, k := range kinds {
		k := k
		f := func(touches []uint8) bool {
			const ways = 8
			p := onePolicy(k, ways, 42)
			for i := 0; i < ways; i++ {
				p.Insert(0, i)
			}
			for _, x := range touches {
				way := int(x) % ways
				p.Touch(0, way)
				v := p.Victim(0)
				if v < 0 || v >= ways {
					return false
				}
				if (k == LRU || k == BitPLRU) && v == way {
					return false // just-touched way must not be the victim
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

func TestBitPLRUResetSemantics(t *testing.T) {
	p := onePolicy(BitPLRU, 4, 0)
	for i := 0; i < 4; i++ {
		p.Insert(0, i)
	}
	// Inserting way 3 saturated the bits and reset all but 3.
	if v := p.Victim(0); v != 0 {
		t.Fatalf("victim after saturation = %d, want 0", v)
	}
	p.Touch(0, 0)
	if v := p.Victim(0); v != 1 {
		t.Fatalf("victim after touch(0) = %d, want 1", v)
	}
}

// TestTreePLRUCycles: evicting and refilling the victim visits every way,
// up to the widest tree that packs into one word.
func TestTreePLRUCycles(t *testing.T) {
	for _, ways := range []int{4, maxTreeWays} {
		p := onePolicy(TreePLRU, ways, 0)
		seen := map[int]bool{}
		for i := 0; i < 4*ways; i++ {
			v := p.Victim(0)
			seen[v] = true
			p.Insert(0, v)
		}
		if len(seen) != ways {
			t.Fatalf("tree-PLRU visited %d/%d ways over %d evictions", len(seen), ways, 4*ways)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	for _, k := range []PolicyKind{LRU, FIFO, BitPLRU, TreePLRU, RandomPolicy} {
		if onePolicy(k, 4, 0).name() == "" {
			t.Fatalf("%v has empty name", k)
		}
		if k.String() == "" {
			t.Fatalf("%v has empty kind string", k)
		}
	}
}

// TestPolicyWidthBoundary: Tree-PLRU packs a set's tree into one word, so a
// cache config takes at most 64 Tree-PLRU ways; every other policy takes
// any width, and New fails on exactly the configs Validate rejects.
func TestPolicyWidthBoundary(t *testing.T) {
	cases := []struct {
		pol  PolicyKind
		ways int
		ok   bool
	}{
		{TreePLRU, 64, true},
		{TreePLRU, 65, false},
		{LRU, 65, true},
		{FIFO, 65, true},
		{BitPLRU, 65, true},
		{RandomPolicy, 65, true},
		{PolicyKind(99), 4, false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v/%d", tc.pol, tc.ways), func(t *testing.T) {
			cfg := Config{Name: "w", SizeBytes: 4 * 64 * uint64(tc.ways), Ways: tc.ways, LineSize: 64, Policy: tc.pol}
			verr := cfg.Validate()
			if (verr == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", verr, tc.ok)
			}
			c, err := New(cfg)
			if (err == nil) != tc.ok {
				t.Fatalf("New() error = %v, want ok=%v", err, tc.ok)
			}
			if c == nil {
				return
			}
			// Overfill set 0 so the policy picks victims across its full
			// width; an out-of-range victim would panic.
			for i := uint64(0); i < uint64(2*tc.ways); i++ {
				c.Fill(mem.PAddr(i * 4 * 64))
			}
			if errs := c.Audit(); len(errs) != 0 {
				t.Fatalf("audit: %v", errs)
			}
		})
	}
}

func TestLevelString(t *testing.T) {
	for _, lvl := range []Level{LevelL1, LevelL2, LevelLLC, LevelDRAM} {
		if lvl.String() == "" {
			t.Fatal("empty level string")
		}
	}
}

func TestFillIsIdempotent(t *testing.T) {
	c := MustNew(small(LRU))
	c.Fill(0x1000)
	c.Fill(0x1000) // duplicate fill (e.g. prefetch of a resident line)
	if !c.Remove(0x1000) {
		t.Fatal("remove failed")
	}
	if c.Contains(0x1000) {
		t.Fatal("duplicate way survived a flush")
	}
}

func TestHierarchyPrefetchOfResidentLineThenFlush(t *testing.T) {
	cfg := HierarchyConfig{
		L1:  Config{Name: "L1", SizeBytes: 1 << 10, Ways: 2, LineSize: 64, Policy: LRU},
		L2:  Config{Name: "L2", SizeBytes: 2 << 10, Ways: 2, LineSize: 64, Policy: LRU},
		LLC: Config{Name: "LLC", SizeBytes: 4 << 10, Ways: 2, LineSize: 64, Policy: LRU},
		Lat: Latencies{L1: 4, L2: 12, LLC: 40, DRAM: 200},
	}
	h, _ := NewHierarchy(cfg)
	p := mem.PAddr(0x9000)
	h.Load(p)
	h.Fill(p) // a prefetcher re-fills the already-cached line
	h.Fill(p)
	h.Flush(p)
	if h.Contains(p) {
		t.Fatal("line survived clflush after redundant prefetch fills")
	}
}

func TestPrefetchUsefulnessAccounting(t *testing.T) {
	c := MustNew(small(LRU))
	c.FillPrefetch(0x1000)
	c.FillPrefetch(0x2000)
	if fills, useful := c.PrefetchStats(); fills != 2 || useful != 0 {
		t.Fatalf("fills=%d useful=%d", fills, useful)
	}
	c.Access(0x1000) // demand hit marks the line useful, once
	c.Access(0x1000)
	if _, useful := c.PrefetchStats(); useful != 1 {
		t.Fatalf("useful=%d after demand hits", useful)
	}
	// Demand fills never count as prefetches.
	c.Fill(0x3000)
	c.Access(0x3000)
	if fills, useful := c.PrefetchStats(); fills != 2 || useful != 1 {
		t.Fatalf("demand fill contaminated stats: %d/%d", fills, useful)
	}
}
