package cache

import "math/bits"

// Fork, reset and boot: copy a cache level (and the whole hierarchy) so a
// point machine can diverge from a warmed template without sharing mutable
// state, or return a level to its constructor state so a machine can start
// over in place. copyFrom copies and boot clears. Fork allocates a level and
// copies every array into it: about 3.8 MB for a warmed Coffee Lake
// machine, almost all of it the LLC's line, valid, prefetched and stamp
// arrays. ResetFrom copies into the level's own arrays instead: every set,
// or, when the caller vouches that the level was last forked or reset from
// the same source and the source has not changed since, only the sets the
// level dirtied since. An origin pointer equal to the source does not prove
// that by itself: machines are recycled, so a source can run, be booted or
// be rewritten by another copy while keeping its identity. Only the
// caller's check (sim.Machine.tracks: origin, clock and copy count) selects
// the dirty-set copy. Boot returns to the constructor state: a level whose
// origin is nil clears only its dirty sets, any other level every array.
// The bookkeeping is one bit per set, which the four writers of a set — the
// scan-hit branch of Access, insert, fillMissed and Remove — set with a
// single OR. An 8-bit attack point dirties about 3% (V1 cross-thread) to
// 16% (covert channel) of the LLC's 12,288 sets, so a dirty-set reset
// copies or clears that share of the LLC a fork copies, and the point's
// final audit (Hierarchy.Audit on a booted level, AuditFrom on a copy of a
// source that audited clean) checks the same sets. On a level whose origin
// is nil, StateHash also reads only the dirty sets: every other set folds
// as the constructor state's zeros.

// Clone returns an independent deep copy of the engine.
func (pa *PolicyArray) Clone() *PolicyArray {
	c := &PolicyArray{}
	c.copyFrom(pa)
	return c
}

// copyFrom makes pa a deep copy of src, in pa's own arrays where they are
// large enough. The Tree-PLRU touch masks are fixed at construction and
// shared; everything mutable is copied, and RandomPolicy sources are
// cloned at their exact stream position so both engines draw identical
// victims.
func (pa *PolicyArray) copyFrom(src *PolicyArray) {
	clocks, stamps, mru, ones, twords, srcs := pa.clocks, pa.stamps, pa.mru, pa.ones, pa.twords, pa.srcs
	*pa = *src
	pa.clocks = reuse(clocks, src.clocks)
	pa.stamps = reuse(stamps, src.stamps)
	pa.mru = reuse(mru, src.mru)
	pa.ones = reuse(ones, src.ones)
	pa.twords = reuse(twords, src.twords)
	pa.srcs = reuse(srcs, src.srcs)
	for g, s := range src.srcs {
		pa.srcs[g] = s.Clone()
	}
}

// reuse returns a copy of src in dst's storage when it is large enough. A
// nil src stays nil, so the arrays a policy kind does not use stay absent.
func reuse[T any](dst, src []T) []T {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
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

// reset returns every set's replacement state to the constructor state,
// as resetSet does set by set, with seedOf giving set g's seed.
func (pa *PolicyArray) reset(seedOf func(g int) int64) {
	clear(pa.clocks)
	clear(pa.stamps)
	clear(pa.mru)
	clear(pa.ones)
	clear(pa.twords)
	for g, src := range pa.srcs {
		src.Seed(seedOf(g))
	}
}

// copyFrom makes c a copy of src: contents, replacement state and
// counters. With dirtyOnly, and when c was last forked or reset from src,
// only the sets c dirtied since are copied, which is exact only while src
// has not changed in between; the caller guarantees that. Otherwise every
// array is copied whole, into c's own storage when it is large enough.
// Either way the dirty bitmap is cleared, src becomes c's origin and the
// way predictor is dropped — it caches only a location, so clearing it
// never changes observable state.
func (c *Cache) copyFrom(src *Cache, dirtyOnly bool) {
	if dirtyOnly && c.origin == src {
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
	} else {
		lines, valid, prefetched, vcnt, dirty, pol := c.lines, c.valid, c.prefetched, c.vcnt, c.dirty, c.pol
		*c = *src // geometry and counters
		c.lines = reuse(lines, src.lines)
		c.valid = reuse(valid, src.valid)
		c.prefetched = reuse(prefetched, src.prefetched)
		c.vcnt = reuse(vcnt, src.vcnt)
		c.dirty = reuse(dirty, src.dirty)
		if pol == nil {
			pol = &PolicyArray{}
		}
		pol.copyFrom(src.pol)
		c.pol = pol
	}
	clear(c.dirty)
	c.origin = src
	c.predLine, c.predIdx, c.predG, c.predOK = 0, 0, 0, false
}

// boot returns c to its constructor state in place. A level whose origin
// is nil differs from that state only in its dirty sets (the
// boot-relative invariant), so only those are cleared; any other level
// clears every array whole. The bitmap is cleared and the origin dropped,
// which restores the invariant.
func (c *Cache) boot() {
	if c.origin != nil {
		clear(c.lines)
		clear(c.valid)
		clear(c.prefetched)
		clear(c.vcnt)
		c.pol.reset(c.policySeed)
	} else {
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
	}
	c.hits, c.misses, c.prefetchFills, c.usefulPrefetch = 0, 0, 0, 0
	clear(c.dirty)
	c.origin = nil
	c.predLine, c.predIdx, c.predG, c.predOK = 0, 0, 0, false
}

// Fork returns an independent deep copy of the cache.
func (c *Cache) Fork() *Cache {
	f := &Cache{}
	f.copyFrom(c, false)
	return f
}

// Fork returns an independent deep copy of the whole hierarchy.
func (h *Hierarchy) Fork() *Hierarchy {
	return &Hierarchy{L1: h.L1.Fork(), L2: h.L2.Fork(), LLC: h.LLC.Fork(), Lat: h.Lat}
}

// ResetFrom makes h a copy of src in place, in its own arrays. With
// dirtyOnly, a level last forked or reset from src's level copies back
// only the sets it dirtied since, which is exact only while src has not
// changed in between; the caller guarantees that (sim.Machine.ResetFrom
// passes its tracks check). Every other level copies every set.
func (h *Hierarchy) ResetFrom(src *Hierarchy, dirtyOnly bool) {
	from := src.levels()
	for i, c := range h.levels() {
		c.copyFrom(from[i], dirtyOnly)
	}
	h.Lat = src.Lat
}

// Boot returns the hierarchy to its constructor state in place: a level
// whose origin is nil clears only its dirty sets, any other level every
// set.
func (h *Hierarchy) Boot() {
	for _, c := range h.levels() {
		c.boot()
	}
}
