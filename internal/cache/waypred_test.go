package cache

import (
	"testing"

	"afterimage/internal/mem"
)

// Boundary tests for the one-entry way predictor in front of the set scan.
// The predictor only caches a location — every use re-verifies tag and
// validity and performs the same mutations the scan would — so these tests
// pin the hazard cases: stale predictions after removal and conflict
// eviction, and behaviour under deliberately corrupted (duplicate) state.

// aliasAddrs returns n addresses that all map to the same slice/set as p.
func aliasAddrs(c *Cache, p mem.PAddr, n int) []mem.PAddr {
	var out []mem.PAddr
	stride := mem.PAddr(uint64(c.NumSets()) * c.Config().LineSize)
	for a := p + stride; len(out) < n; a += stride {
		if c.SliceOf(a) == c.SliceOf(p) && c.SetOf(a) == c.SetOf(p) {
			out = append(out, a)
		}
	}
	return out
}

func TestWayPredictorBoundaries(t *testing.T) {
	const p = mem.PAddr(0x4000)

	cases := []struct {
		name string
		run  func(t *testing.T, c *Cache)
	}{
		{"stale after remove", func(t *testing.T, c *Cache) {
			c.Fill(p)
			if !c.Access(p) || !c.Access(p) {
				t.Fatal("warm access missed")
			}
			c.Remove(p)
			if c.Access(p) {
				t.Fatal("predictor resurrected a removed line")
			}
			c.Fill(p)
			if !c.Access(p) {
				t.Fatal("refilled line missed")
			}
		}},
		{"stale after conflict eviction", func(t *testing.T, c *Cache) {
			c.Fill(p)
			c.Access(p)
			// Evict p by filling the whole set with aliases, then keep going.
			for _, a := range aliasAddrs(c, p, 2*c.Config().Ways) {
				c.Fill(a)
				c.Access(a)
			}
			if c.Contains(p) {
				t.Fatal("alias pressure did not evict p")
			}
			if c.Access(p) {
				t.Fatal("predictor hit an evicted line")
			}
		}},
		{"prediction follows the line across refills", func(t *testing.T, c *Cache) {
			c.Fill(p)
			c.Access(p)
			c.Fill(p) // resident refresh must not duplicate
			if errs := c.Audit(); len(errs) != 0 {
				t.Fatalf("audit after refill: %v", errs)
			}
			c.Remove(p)
			if c.Contains(p) {
				t.Fatal("duplicate way survived a single remove")
			}
		}},
		{"alternating aliases in one set", func(t *testing.T, c *Cache) {
			b := aliasAddrs(c, p, 1)[0]
			c.Fill(p)
			c.Fill(b)
			for i := 0; i < 8; i++ {
				if !c.Access(p) || !c.Access(b) {
					t.Fatalf("iteration %d: alias access missed", i)
				}
			}
			if c.hits != 16 || c.misses != 0 {
				t.Fatalf("hits=%d misses=%d, want 16/0", c.hits, c.misses)
			}
		}},
		{"duplicate state keeps first-way semantics", func(t *testing.T, parent *Cache) {
			parent.Fill(p)
			parent.Access(p) // arms the parent's predictor on p's way
			c := parent.Fork()
			// Corrupt the fork: duplicate p's line into a second way of its
			// set, as a fault in the fill path could.
			g := plantSet(c, c.SliceOf(p), int(c.SetOf(p)))
			base := g * c.ways
			var src int
			for w := 0; w < c.ways; w++ {
				if c.valid[base+w] {
					src = w
					break
				}
			}
			dst := (src + 1) % c.ways
			c.lines[base+dst] = c.lines[base+src]
			c.valid[base+dst] = true
			c.vcnt[g]++
			if errs := c.Audit(); len(errs) == 0 {
				t.Fatal("audit missed the duplicate ways")
			}
			// The predictor was reset by Fork, so accesses resolve by scan
			// order (first matching way) — and stay consistent when repeated.
			if !c.Access(p) || !c.Access(p) {
				t.Fatal("duplicate-state access missed")
			}
			// Removing once drops only the first copy, exactly like the scan.
			if !c.Remove(p) {
				t.Fatal("remove failed")
			}
			if !c.Contains(p) {
				t.Fatal("remove dropped both duplicate ways at once")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, MustNew(small(LRU)))
		})
	}
}
