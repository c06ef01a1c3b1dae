package cache

import (
	"fmt"
	"math/bits"

	"afterimage/internal/mem"
	"afterimage/internal/statehash"
)

// lineAddr converts a physical line address back to a byte address for the
// slice/set mapping functions.
func lineAddr(line, lineSize uint64) mem.PAddr { return mem.PAddr(line * lineSize) }

// StateHash folds the cache's complete state — contents, replacement state
// and counters — into a stable 64-bit digest. The fold order (set contents
// then policy words, slice-major over sets) matches the seed implementation
// word for word.
//
// On a level whose origin is nil, a clean set holds its constructor state
// (the boot-relative invariant): zero lines, false valid and prefetched
// bits, and a policy layout of zeros, Random's draw count included. It
// folds as those zeros in constant time without being read, to the digest
// the full fold gives.
func (c *Cache) StateHash() uint64 {
	h := statehash.New()
	h.Str(c.cfg.Name)
	gsets := c.nslices * int(c.nsets)
	scratch := make([]uint64, 0, c.ways+2)
	booted := c.origin == nil
	polWords := len(c.pol.SaveInto(scratch, 0)) // the same for every set
	for g := 0; g < gsets; g++ {
		if booted && !c.isDirty(g) {
			h.ZeroU64s(c.ways).ZeroBools(c.ways).ZeroBools(c.ways).ZeroU64s(polWords)
			continue
		}
		base := g * c.ways
		scratch = c.pol.SaveInto(scratch[:0], g)
		h.U64s(c.lines[base : base+c.ways]).
			Bools(c.valid[base : base+c.ways]).
			Bools(c.prefetched[base : base+c.ways]).
			U64s(scratch)
	}
	h.U64(c.hits).U64(c.misses).U64(c.prefetchFills).U64(c.usefulPrefetch)
	return h.Sum()
}

// Audit deep-checks the level's structural invariants: no duplicate valid
// lines within a set, every valid line resident in the slice/set its address
// maps to, and the per-set replacement policy internally consistent. It
// returns every broken rule.
//
// Each set first gets setSound, an exact check that builds no messages;
// only a set that fails it is walked again by auditSet, which reports each
// broken rule. A clean audit is therefore one pass over the level. A level
// whose origin is nil is checked over its dirty sets only: its other sets
// hold the constructor state, which breaks no rule.
func (c *Cache) Audit() []error { return c.audit(c.origin == nil) }

// audit is Audit over every set or, with dirtyOnly, over the sets dirtied
// since the last fork or reset. Either way it visits sets in ascending
// global order, so each set it checks yields the messages, in the order,
// that the full audit prints for it.
func (c *Cache) audit(dirtyOnly bool) []error {
	var errs []error
	nsets := int(c.nsets)
	for g := 0; g < len(c.vcnt); g++ {
		if dirtyOnly {
			rest := c.dirty[g>>6] >> (uint(g) & 63)
			if rest == 0 {
				g |= 63 // the rest of this bitmap word is clean
				continue
			}
			g += bits.TrailingZeros64(rest)
		}
		if si, i := g/nsets, g%nsets; !c.setSound(si, i, g) {
			errs = c.auditSet(errs, si, i, g)
		}
	}
	return errs
}

// setSound reports whether set i of slice si (global set g) breaks none of
// the rules auditSet checks. It must agree with auditSet exactly, so it
// maps lines with the same SliceOf/SetOf expressions, not gsetOfLine, which
// disagrees with them for line words whose byte address overflows.
func (c *Cache) setSound(si, i, g int) bool {
	base := g * c.ways
	lines := c.lines[base : base+c.ways]
	valid := c.valid[base : base+c.ways]
	for w, v := range valid {
		if !v {
			continue
		}
		line := lines[w]
		p := lineAddr(line, c.cfg.LineSize)
		if c.SliceOf(p) != si || c.SetOf(p) != uint64(i) {
			return false
		}
		for w2 := w + 1; w2 < len(lines); w2++ {
			if lines[w2] == line && valid[w2] {
				return false
			}
		}
	}
	return c.pol.sound(g)
}

// auditSet appends one error per broken rule of set i of slice si (global
// set g), in way order, then the policy's.
func (c *Cache) auditSet(errs []error, si, i, g int) []error {
	base := g * c.ways
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			continue
		}
		line := c.lines[base+w]
		p := lineAddr(line, c.cfg.LineSize)
		if got := c.SliceOf(p); got != si {
			errs = append(errs, fmt.Errorf("cache %q: slice %d set %d way %d holds line %#x which maps to slice %d", c.cfg.Name, si, i, w, line, got))
		}
		if got := c.SetOf(p); got != uint64(i) {
			errs = append(errs, fmt.Errorf("cache %q: slice %d set %d way %d holds line %#x which maps to set %d", c.cfg.Name, si, i, w, line, got))
		}
		for w2 := w + 1; w2 < c.ways; w2++ {
			if c.valid[base+w2] && c.lines[base+w2] == line {
				errs = append(errs, fmt.Errorf("cache %q: slice %d set %d holds line %#x in ways %d and %d", c.cfg.Name, si, i, line, w, w2))
			}
		}
	}
	if err := c.pol.Audit(g); err != nil {
		errs = append(errs, fmt.Errorf("cache %q: slice %d set %d policy: %w", c.cfg.Name, si, i, err))
	}
	return errs
}

// VisitLines calls fn for every valid physical line address in the cache,
// stopping early if fn returns false. Iteration order is slice-major and
// deterministic.
func (c *Cache) VisitLines(fn func(line uint64) bool) {
	for i, v := range c.valid {
		if v && !fn(c.lines[i]) {
			return
		}
	}
}
