package cache

import (
	"slices"
	"testing"

	"afterimage/internal/mem"
)

// Geometries of the three Coffee Lake levels; each audit case picks one and
// a replacement policy.
var (
	l1Shape  = Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineSize: 64}
	l2Shape  = Config{Name: "L2", SizeBytes: 256 << 10, Ways: 4, LineSize: 64}
	llcShape = Config{Name: "LLC", SizeBytes: 12 << 20, Ways: 16, LineSize: 64, Slices: 8}
)

// lineIn returns the k-th smallest line address that maps to slice si,
// set i of c.
func lineIn(c *Cache, si, i, k int) uint64 {
	for line := uint64(i); ; line += c.nsets {
		if c.SliceOf(lineAddr(line, c.cfg.LineSize)) == si {
			if k == 0 {
				return line
			}
			k--
		}
	}
}

// auditFixture builds a clean, populated cache: sets (0,0), (0,1) and the
// last set of the last slice hold a line in every way, set (0,2) in half
// its ways, and a few hits reorder the replacement state.
func auditFixture(cfg Config, pol PolicyKind) *Cache {
	cfg.Policy = pol
	c := MustNew(cfg)
	fills := []struct{ si, i, n int }{
		{0, 0, c.ways}, {0, 1, c.ways}, {0, 2, c.ways / 2},
		{c.nslices - 1, int(c.nsets) - 1, c.ways},
	}
	for _, f := range fills {
		for k := 0; k < f.n; k++ {
			c.Fill(lineAddr(lineIn(c, f.si, f.i, k), c.cfg.LineSize))
		}
	}
	for _, k := range []int{1, 0, 2} {
		c.Access(lineAddr(lineIn(c, 0, 0, k), c.cfg.LineSize))
	}
	return c
}

// plantSet returns the global set number of slice si, set i of c and marks
// the set dirty. Every plant edits a set's arrays through it: a plant goes
// past the writers that mark, and a level audits and hashes only its dirty
// sets when its origin is nil or is the level audited from.
func plantSet(c *Cache, si, i int) int {
	g := si*int(c.nsets) + i
	c.markDirty(g)
	return g
}

// Views into slice si, set i of c's flat arrays, so a plant edits the
// cache in place.
func linesOf(c *Cache, si, i int) []uint64 {
	g := plantSet(c, si, i)
	return c.lines[g*c.ways : (g+1)*c.ways]
}

// stampsOf returns set (si, i)'s LRU/FIFO stamps and its clock.
func stampsOf(c *Cache, si, i int) ([]uint64, uint64) {
	g := plantSet(c, si, i)
	return c.pol.stamps[g*c.ways : (g+1)*c.ways], c.pol.clocks[g]
}

// setAllOnes plants the all-ones Bit-PLRU state into set (si, i): every
// MRU bit set and the counter agreeing, which Touch never leaves behind.
func setAllOnes(c *Cache, si, i int) {
	g := plantSet(c, si, i)
	mru := c.pol.mru[g*c.ways : (g+1)*c.ways]
	for w := range mru {
		mru[w] = true
	}
	c.pol.ones[g] = int32(c.ways)
}

// findings renders audit errors as their messages.
func findings(errs []error) []string {
	var out []string
	for _, err := range errs {
		out = append(out, err.Error())
	}
	return out
}

// TestAuditMessages pins the exact text and order of every audit finding:
// each violation class is planted into a fork of a clean L1-, L2- or
// sliced-LLC-shaped cache, alone, several to a set and across sets. A clean set must produce nothing, including the cases a faster
// check could get wrong: a duplicate held only in an invalid way, and line
// words at or above 2^58, whose byte address wraps. The dirty-set audit
// must print the same findings, and so must the audit of a booted level
// the same plants go into, which checks its dirty sets only.
func TestAuditMessages(t *testing.T) {
	cases := []struct {
		name  string
		shape Config
		pol   PolicyKind
		plant func(c *Cache)
		want  []string
	}{
		{name: "l1/clean", shape: l1Shape, pol: BitPLRU},
		{
			name: "l1/wrong-set", shape: l1Shape, pol: BitPLRU,
			plant: func(c *Cache) { linesOf(c, 0, 0)[3] = lineIn(c, 0, 7, 0) },
			want: []string{
				`cache "L1D": slice 0 set 0 way 3 holds line 0x7 which maps to set 7`,
			},
		},
		{
			name: "l1/duplicate", shape: l1Shape, pol: BitPLRU,
			plant: func(c *Cache) { linesOf(c, 0, 1)[5] = linesOf(c, 0, 1)[1] },
			want: []string{
				`cache "L1D": slice 0 set 1 holds line 0x41 in ways 1 and 5`,
			},
		},
		{
			name: "l1/duplicate-in-invalid-way", shape: l1Shape, pol: BitPLRU,
			plant: func(c *Cache) { linesOf(c, 0, 2)[6] = linesOf(c, 0, 2)[0] },
		},
		{
			name: "l1/duplicate-into-invalid-way", shape: l1Shape, pol: BitPLRU,
			plant: func(c *Cache) {
				g := plantSet(c, 0, 2)
				linesOf(c, 0, 2)[6] = linesOf(c, 0, 2)[0]
				c.valid[g*c.ways+6] = true
				c.vcnt[g]++
			},
			want: []string{
				`cache "L1D": slice 0 set 2 holds line 0x2 in ways 0 and 6`,
			},
		},
		{
			name: "l1/bitplru-ones-mismatch", shape: l1Shape, pol: BitPLRU,
			plant: func(c *Cache) { c.pol.ones[plantSet(c, 0, 0)]++ },
			want: []string{
				`cache "L1D": slice 0 set 0 policy: Bit-PLRU: ones counter 5 != popcount 4`,
			},
		},
		{
			name: "l1/bitplru-all-ones", shape: l1Shape, pol: BitPLRU,
			plant: func(c *Cache) { setAllOnes(c, 0, 1) },
			want: []string{
				`cache "L1D": slice 0 set 1 policy: Bit-PLRU: all 8 MRU bits set (all-ones state must never persist)`,
			},
		},
		{
			name: "l1/several-in-one-set", shape: l1Shape, pol: BitPLRU,
			plant: func(c *Cache) {
				lines := linesOf(c, 0, 0)
				lines[2] = lineIn(c, 0, 9, 3)
				lines[4] = lines[0]
				lines[6] = lines[0]
				c.pol.ones[plantSet(c, 0, 0)] += 2
			},
			want: []string{
				`cache "L1D": slice 0 set 0 holds line 0x0 in ways 0 and 4`,
				`cache "L1D": slice 0 set 0 holds line 0x0 in ways 0 and 6`,
				`cache "L1D": slice 0 set 0 way 2 holds line 0xc9 which maps to set 9`,
				`cache "L1D": slice 0 set 0 holds line 0x0 in ways 4 and 6`,
				`cache "L1D": slice 0 set 0 policy: Bit-PLRU: ones counter 6 != popcount 4`,
			},
		},
		{
			name: "l1/across-sets", shape: l1Shape, pol: BitPLRU,
			plant: func(c *Cache) {
				linesOf(c, 0, 0)[7] = lineIn(c, 0, 63, 1)
				linesOf(c, 0, 1)[0] = linesOf(c, 0, 1)[7]
				setAllOnes(c, 0, 63)
			},
			want: []string{
				`cache "L1D": slice 0 set 0 way 7 holds line 0x7f which maps to set 63`,
				`cache "L1D": slice 0 set 1 holds line 0x1c1 in ways 0 and 7`,
				`cache "L1D": slice 0 set 63 policy: Bit-PLRU: all 8 MRU bits set (all-ones state must never persist)`,
			},
		},
		{
			name: "l1/treeplru-wrong-set-and-duplicate", shape: l1Shape, pol: TreePLRU,
			plant: func(c *Cache) {
				lines := linesOf(c, 0, 1)
				lines[1] = lineIn(c, 0, 0, 5)
				lines[3] = lines[1]
			},
			want: []string{
				`cache "L1D": slice 0 set 1 way 1 holds line 0x140 which maps to set 0`,
				`cache "L1D": slice 0 set 1 holds line 0x140 in ways 1 and 3`,
				`cache "L1D": slice 0 set 1 way 3 holds line 0x140 which maps to set 0`,
			},
		},
		{
			name: "l2/fifo-stamp-ahead", shape: l2Shape, pol: FIFO,
			plant: func(c *Cache) {
				stamps, clock := stampsOf(c, 0, 0)
				stamps[2] = clock + 1
			},
			want: []string{
				`cache "L2": slice 0 set 0 policy: FIFO: way 2 stamp 5 ahead of clock 4`,
			},
		},
		{
			name: "l2/fifo-two-stamps-ahead", shape: l2Shape, pol: FIFO,
			plant: func(c *Cache) {
				stamps, clock := stampsOf(c, 0, 1)
				stamps[1] = clock + 7
				stamps[3] = clock + 2
			},
			want: []string{
				`cache "L2": slice 0 set 1 policy: FIFO: way 1 stamp 11 ahead of clock 4`,
			},
		},
		{
			name: "l2/lru-several-across-sets", shape: l2Shape, pol: LRU,
			plant: func(c *Cache) {
				linesOf(c, 0, 0)[0] = lineIn(c, 0, 1023, 9)
				stamps, clock := stampsOf(c, 0, 0)
				stamps[3] = clock + 1
				linesOf(c, 0, 2)[1] = linesOf(c, 0, 2)[0]
				lines := linesOf(c, 0, 1023)
				lines[2], lines[3] = lines[1], lines[1]
			},
			want: []string{
				`cache "L2": slice 0 set 0 way 0 holds line 0x27ff which maps to set 1023`,
				`cache "L2": slice 0 set 0 policy: LRU: way 3 stamp 8 ahead of clock 7`,
				`cache "L2": slice 0 set 2 holds line 0x2 in ways 0 and 1`,
				`cache "L2": slice 0 set 1023 holds line 0x7ff in ways 1 and 2`,
				`cache "L2": slice 0 set 1023 holds line 0x7ff in ways 1 and 3`,
				`cache "L2": slice 0 set 1023 holds line 0x7ff in ways 2 and 3`,
			},
		},
		{
			name: "l2/random-wrong-set", shape: l2Shape, pol: RandomPolicy,
			plant: func(c *Cache) { linesOf(c, 0, 1)[2] = lineIn(c, 0, 2, 0) },
			want: []string{
				`cache "L2": slice 0 set 1 way 2 holds line 0x2 which maps to set 2`,
			},
		},
		{name: "llc/clean", shape: llcShape, pol: LRU},
		{
			name: "llc/wrong-slice", shape: llcShape, pol: LRU,
			plant: func(c *Cache) { linesOf(c, 0, 0)[5] = lineIn(c, 3, 0, 0) },
			want: []string{
				`cache "LLC": slice 0 set 0 way 5 holds line 0x1200 which maps to slice 3`,
			},
		},
		{
			name: "llc/wrong-set", shape: llcShape, pol: LRU,
			plant: func(c *Cache) { linesOf(c, 0, 1)[9] = lineIn(c, 0, 9, 0) },
			want: []string{
				`cache "LLC": slice 0 set 1 way 9 holds line 0x3c09 which maps to set 9`,
			},
		},
		{
			name: "llc/wrong-slice-and-set", shape: llcShape, pol: LRU,
			plant: func(c *Cache) { linesOf(c, 7, 1535)[15] = lineIn(c, 2, 700, 4) },
			want: []string{
				`cache "LLC": slice 7 set 1535 way 15 holds line 0x122bc which maps to slice 2`,
				`cache "LLC": slice 7 set 1535 way 15 holds line 0x122bc which maps to set 700`,
			},
		},
		{
			name: "llc/duplicate", shape: llcShape, pol: LRU,
			plant: func(c *Cache) { linesOf(c, 0, 0)[14] = linesOf(c, 0, 0)[3] },
			want: []string{
				`cache "LLC": slice 0 set 0 holds line 0x7e00 in ways 3 and 14`,
			},
		},
		{
			name: "llc/stamp-ahead", shape: llcShape, pol: LRU,
			plant: func(c *Cache) {
				stamps, clock := stampsOf(c, 7, 1535)
				stamps[15] = clock + 100
			},
			want: []string{
				`cache "LLC": slice 7 set 1535 policy: LRU: way 15 stamp 116 ahead of clock 16`,
			},
		},
		{
			// Line word 2^58+L: the byte address wraps to L's, so the
			// level audits it as L, which belongs in set (0,0).
			name: "llc/line-word-wraps-into-its-set", shape: llcShape, pol: LRU,
			plant: func(c *Cache) { linesOf(c, 0, 0)[8] = 1<<58 | lineIn(c, 0, 0, 40) },
		},
		{
			// 2^58 ≡ 1024 (mod 1536): this word's own residue is set 0, but
			// its wrapped byte address maps to set 512.
			name: "llc/line-word-wraps-out-of-its-set", shape: llcShape, pol: LRU,
			plant: func(c *Cache) { linesOf(c, 0, 0)[8] = 1<<58 | lineIn(c, 0, 512, 0) },
			want: []string{
				`cache "LLC": slice 0 set 0 way 8 holds line 0x400000000001a00 which maps to set 512`,
			},
		},
		{
			name: "llc/several-across-slices", shape: llcShape, pol: FIFO,
			plant: func(c *Cache) {
				lines := linesOf(c, 0, 0)
				lines[0] = lineIn(c, 5, 0, 0)
				lines[1] = lineIn(c, 0, 3, 0)
				lines[12] = lines[11]
				stamps, clock := stampsOf(c, 0, 0)
				stamps[4] = clock + 1
				linesOf(c, 0, 2)[2] = lineIn(c, 6, 1, 2)
				last := linesOf(c, 7, 1535)
				last[0], last[15] = last[15], last[0]
				last[7] = last[15]
			},
			want: []string{
				`cache "LLC": slice 0 set 0 way 0 holds line 0x1e00 which maps to slice 5`,
				`cache "LLC": slice 0 set 0 way 1 holds line 0x1203 which maps to set 3`,
				`cache "LLC": slice 0 set 0 holds line 0x23a00 in ways 11 and 12`,
				`cache "LLC": slice 0 set 0 policy: FIFO: way 4 stamp 17 ahead of clock 16`,
				`cache "LLC": slice 0 set 2 way 2 holds line 0x3001 which maps to slice 6`,
				`cache "LLC": slice 0 set 2 way 2 holds line 0x3001 which maps to set 1`,
				`cache "LLC": slice 7 set 1535 holds line 0xbff in ways 7 and 15`,
			},
		},
		{
			name: "llc/bitplru-mismatch-and-wrong-slice", shape: llcShape, pol: BitPLRU,
			plant: func(c *Cache) {
				linesOf(c, 0, 1)[4] = lineIn(c, 1, 1, 0)
				c.pol.ones[plantSet(c, 0, 1)] = 0
				setAllOnes(c, 7, 1535)
			},
			want: []string{
				`cache "LLC": slice 0 set 1 way 4 holds line 0x1 which maps to slice 1`,
				`cache "LLC": slice 0 set 1 policy: Bit-PLRU: ones counter 0 != popcount 1`,
				`cache "LLC": slice 7 set 1535 policy: Bit-PLRU: all 16 MRU bits set (all-ones state must never persist)`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parent := auditFixture(tc.shape, tc.pol)
			if errs := parent.Audit(); len(errs) != 0 {
				t.Fatalf("fixture fails audit before planting: %v", errs)
			}
			c := parent.Fork()
			if tc.plant != nil {
				tc.plant(c)
			}
			if got := findings(c.Audit()); !slices.Equal(got, tc.want) {
				t.Errorf("audit findings:\n got %q\nwant %q", got, tc.want)
			}
			// The dirty-set audit, over every planted set plus every third
			// set besides, prints the same findings in the same order.
			for g := 0; g < len(c.vcnt); g += 3 {
				c.markDirty(g)
			}
			if got := findings(c.audit(true)); !slices.Equal(got, tc.want) {
				t.Errorf("dirty-set audit findings:\n got %q\nwant %q", got, tc.want)
			}
			if errs := parent.Audit(); len(errs) != 0 {
				t.Errorf("planting into the fork dirtied the parent: %v", errs)
			}
			// Planted into the booted fixture itself, the findings are the
			// same from its Audit, over its dirty sets, and from the full
			// audit of its fork.
			if tc.plant != nil {
				tc.plant(parent)
			}
			if got := findings(parent.Audit()); !slices.Equal(got, tc.want) {
				t.Errorf("booted-level audit findings:\n got %q\nwant %q", got, tc.want)
			}
			if got := findings(parent.Fork().Audit()); !slices.Equal(got, tc.want) {
				t.Errorf("findings of the booted level's fork:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestBitPLRUCorruptionCaught: the all-ones MRU state Bit-PLRU can never
// reach legally must fail the policy audit of the fork it is planted into,
// and only that fork's.
func TestBitPLRUCorruptionCaught(t *testing.T) {
	c := MustNew(small(BitPLRU))
	for i := uint64(0); i < 8; i++ {
		c.Fill(mem.PAddr(i * 0x40))
	}
	if errs := c.Audit(); len(errs) != 0 {
		t.Fatalf("clean Bit-PLRU fails audit: %v", errs)
	}
	f := c.Fork()
	if !f.pol.CorruptBitPLRU(0) {
		t.Fatal("Bit-PLRU cache refused the corruption")
	}
	if errs := f.Audit(); len(errs) == 0 {
		t.Fatal("audit missed the Bit-PLRU corruption")
	}
	if errs := c.Audit(); len(errs) != 0 {
		t.Fatalf("corrupting the fork dirtied the parent: %v", errs)
	}
}
