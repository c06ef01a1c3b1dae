package cache

import (
	"math/bits"

	"afterimage/internal/detrand"
)

// Fork and reset: copy a cache level (and the whole hierarchy) so a point
// machine can diverge from a warmed template without sharing mutable state,
// or return a level to its constructor state so a point machine can be
// rebooted in place. One routine, copyFrom, does all three. Fork allocates a
// level and copies every array into it: about 3.8 MB for a warmed Coffee
// Lake machine, almost all of it the LLC's line, valid, prefetched and stamp
// arrays. ResetFrom copies back in place, and when the level was last forked
// or reset from the same source it copies only the sets the level dirtied
// since. ResetFrom(nil) reboots: a level whose origin is nil clears only its
// dirty sets, any other level every array. The bookkeeping is one bit per
// set, which the four writers of a set — the scan-hit branch of Access,
// insert, fillMissed and Remove — set with a single OR. An 8-bit attack
// point dirties about 3% (V1 cross-thread) to 16% (covert channel) of the
// LLC's 12,288 sets, so a reset copies or clears that share of the LLC a
// fork copies, and the point's final audit checks the same sets. On a level
// whose origin is nil, StateHash also reads only the dirty sets: every
// other set folds as the constructor state's zeros.

// Clone returns an independent deep copy of the engine. The Tree-PLRU
// touch masks are fixed at construction and shared; everything mutable is
// copied, and RandomPolicy sources are cloned at their exact stream
// position so parent and clone draw identical victims.
func (pa *PolicyArray) Clone() *PolicyArray {
	c := &PolicyArray{
		kind:   pa.kind,
		ways:   pa.ways,
		tsetM:  pa.tsetM,
		tclrM:  pa.tclrM,
		tnodes: pa.tnodes,
	}
	if pa.clocks != nil {
		c.clocks = append([]uint64(nil), pa.clocks...)
		c.stamps = append([]uint64(nil), pa.stamps...)
	}
	if pa.mru != nil {
		c.mru = append([]bool(nil), pa.mru...)
		c.ones = append([]int32(nil), pa.ones...)
	}
	if pa.twords != nil {
		c.twords = append([]uint64(nil), pa.twords...)
	}
	if pa.srcs != nil {
		c.srcs = make([]*detrand.Source, len(pa.srcs))
		for g, s := range pa.srcs {
			c.srcs[g] = s.Clone()
		}
	}
	return c
}

// copySet copies set g's replacement state from src, an engine of the same
// kind and width. A Random set's source is cloned at its stream position.
func (pa *PolicyArray) copySet(src *PolicyArray, g int) {
	lo, hi := g*pa.ways, (g+1)*pa.ways
	switch pa.kind {
	case LRU, FIFO:
		pa.clocks[g] = src.clocks[g]
		copy(pa.stamps[lo:hi], src.stamps[lo:hi])
	case BitPLRU:
		pa.ones[g] = src.ones[g]
		copy(pa.mru[lo:hi], src.mru[lo:hi])
	case TreePLRU:
		pa.twords[g] = src.twords[g]
	case RandomPolicy:
		pa.srcs[g] = src.srcs[g].Clone()
	}
}

// resetSet returns set g's replacement state to the constructor state:
// zero clocks, stamps, MRU bits and tree words, and a Random set's source
// reseeded from seed, its constructor seed.
func (pa *PolicyArray) resetSet(g int, seed int64) {
	lo, hi := g*pa.ways, (g+1)*pa.ways
	switch pa.kind {
	case LRU, FIFO:
		pa.clocks[g] = 0
		clear(pa.stamps[lo:hi])
	case BitPLRU:
		pa.ones[g] = 0
		clear(pa.mru[lo:hi])
	case TreePLRU:
		pa.twords[g] = 0
	case RandomPolicy:
		pa.srcs[g].Seed(seed)
	}
}

// copyFrom makes c a copy of src: contents, replacement state and counters.
// When c was last forked or reset from src, only the sets c dirtied since
// can differ, so only those are copied; otherwise every array is copied
// whole, into c's own storage when it is large enough. A nil src is the
// constructor state: a level whose origin is nil clears only its dirty
// sets, by the boot-relative invariant, and any other level every set.
// Either way the dirty bitmap is cleared, src becomes c's origin and the
// way predictor is dropped — it caches only a location, so clearing it
// never changes observable state.
func (c *Cache) copyFrom(src *Cache) {
	switch {
	case src == nil:
		if c.origin != nil {
			for g := range c.vcnt {
				c.markDirty(g)
			}
		}
		for i, word := range c.dirty {
			for ; word != 0; word &= word - 1 {
				g := i<<6 + bits.TrailingZeros64(word)
				lo, hi := g*c.ways, (g+1)*c.ways
				clear(c.lines[lo:hi])
				clear(c.valid[lo:hi])
				clear(c.prefetched[lo:hi])
				c.vcnt[g] = 0
				c.pol.resetSet(g, c.policySeed(g))
			}
		}
		c.hits, c.misses, c.prefetchFills, c.usefulPrefetch = 0, 0, 0, 0
	case c.origin == src:
		for i, word := range c.dirty {
			for ; word != 0; word &= word - 1 {
				g := i<<6 + bits.TrailingZeros64(word)
				lo, hi := g*c.ways, (g+1)*c.ways
				copy(c.lines[lo:hi], src.lines[lo:hi])
				copy(c.valid[lo:hi], src.valid[lo:hi])
				copy(c.prefetched[lo:hi], src.prefetched[lo:hi])
				c.vcnt[g] = src.vcnt[g]
				c.pol.copySet(src.pol, g)
			}
		}
		c.hits, c.misses = src.hits, src.misses
		c.prefetchFills, c.usefulPrefetch = src.prefetchFills, src.usefulPrefetch
	default:
		lines, valid, prefetched, vcnt, dirty := c.lines, c.valid, c.prefetched, c.vcnt, c.dirty
		*c = *src // geometry and counters
		c.lines = append(lines[:0], src.lines...)
		c.valid = append(valid[:0], src.valid...)
		c.prefetched = append(prefetched[:0], src.prefetched...)
		c.vcnt = append(vcnt[:0], src.vcnt...)
		c.dirty = append(dirty[:0], src.dirty...)
		c.pol = src.pol.Clone()
	}
	clear(c.dirty)
	c.origin = src
	c.predLine, c.predIdx, c.predG, c.predOK = 0, 0, 0, false
}

// Fork returns an independent deep copy of the cache.
func (c *Cache) Fork() *Cache {
	f := &Cache{}
	f.copyFrom(c)
	return f
}

// Fork returns an independent deep copy of the whole hierarchy.
func (h *Hierarchy) Fork() *Hierarchy {
	return &Hierarchy{L1: h.L1.Fork(), L2: h.L2.Fork(), LLC: h.LLC.Fork(), Lat: h.Lat}
}

// ResetFrom returns the hierarchy to src's state in place, or with a nil
// src to its constructor state. A level last forked or reset from src's
// level copies back only the sets it dirtied since, which is exact only
// while src has not changed in between; the caller guarantees that
// (sim.Machine.ResetFrom checks src's clock). With a nil src, a level
// whose origin is nil clears only its dirty sets.
func (h *Hierarchy) ResetFrom(src *Hierarchy) {
	from := src.levels()
	for i, c := range h.levels() {
		c.copyFrom(from[i])
	}
	if src != nil {
		h.Lat = src.Lat
	}
}
