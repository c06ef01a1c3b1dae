// Package cache implements the memory-hierarchy substrate of the AfterImage
// simulator: set-associative caches with pluggable replacement policies, a
// sliced last-level cache with a Haswell-style XOR slice hash, and an
// inclusive three-level hierarchy offering the access, flush and fill
// operations the attacks build on.
package cache

import (
	"fmt"
	"math/bits"

	"afterimage/internal/mem"
	"afterimage/internal/telemetry"
)

// Config shapes one cache level.
type Config struct {
	Name       string
	SizeBytes  uint64
	Ways       int
	LineSize   uint64
	Policy     PolicyKind
	PolicySeed int64
	Slices     int // 0 or 1: unsliced
}

// Sets computes the number of sets per slice.
func (c Config) Sets() uint64 {
	slices := c.Slices
	if slices < 1 {
		slices = 1
	}
	return c.SizeBytes / (c.LineSize * uint64(c.Ways) * uint64(slices))
}

// Validate rejects malformed configurations.
func (c Config) Validate() error {
	if c.LineSize == 0 || c.Ways <= 0 || c.SizeBytes == 0 {
		return fmt.Errorf("cache %q: size, ways and line size must be positive", c.Name)
	}
	slices := c.Slices
	if slices < 1 {
		slices = 1
	}
	per := c.LineSize * uint64(c.Ways) * uint64(slices)
	if c.SizeBytes%per != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*line*slices", c.Name, c.SizeBytes)
	}
	if err := c.Policy.CheckWays(c.Ways); err != nil {
		return fmt.Errorf("cache %q: %w", c.Name, err)
	}
	return nil
}

// Cache is one level: optionally sliced, set-associative, physically
// indexed by cache-line address.
//
// All per-way state lives in three contiguous arrays indexed by
// (slice*nsets + set)*ways + way, and all replacement state lives in one
// flat PolicyArray, so an access is pure index arithmetic: no per-set heap
// objects, no interface dispatch, no pointer chasing. The "global set"
// number g = slice*nsets + set is the unit the policy engine and the
// hash/audit code agree on; iteration over g visits sets in exactly the
// slice-major order the seed implementation used, which keeps StateHash
// and VisitLines bit-identical.
type Cache struct {
	cfg     Config
	nslices int
	nsets   uint64
	ways    int

	setsPow2  bool
	setMask   uint64
	setMagic  uint64 // Lemire fastmod magic for non-power-of-two set counts
	linePow2  bool
	lineShift uint

	lines      []uint64 // [gset*ways+way] physical line address
	valid      []bool   // [gset*ways+way]
	prefetched []bool   // [gset*ways+way] prefetch-installed, not yet demand-hit
	vcnt       []int32  // [gset] popcount of valid (derived, not hashed)
	pol        *PolicyArray

	// dirty holds one bit per global set, set by every write to the set's
	// ways or replacement state since the level was last forked or reset
	// from origin; those sets are the only ones that can differ from it.
	//
	// The boot-relative invariant: a level whose origin is nil differs from
	// its constructor state only in its dirty sets. New establishes it, the
	// four writers that mark sets keep it, and copyFrom(nil), the reset to
	// the constructor state, restores it. StateHash and Audit rely on it.
	dirty  []uint64
	origin *Cache

	// One-entry direct-mapped way predictor: the flat index where predLine
	// was last seen. It caches only a LOCATION — every use re-verifies the
	// tag and then performs the identical state mutations the full lookup
	// would, so it can never change observable state, only skip the scan.
	predLine uint64
	predIdx  int
	predG    int // global set of predIdx (avoids a divide on the hit path)
	predOK   bool

	hits   uint64
	misses uint64
	// Prefetch usefulness accounting: lines installed by prefetch, and how
	// many of those received a demand hit before eviction.
	prefetchFills  uint64
	usefulPrefetch uint64
}

// New constructs a cache from its config.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slices := cfg.Slices
	if slices < 1 {
		slices = 1
	}
	nsets := cfg.Sets()
	c := &Cache{cfg: cfg, nslices: slices, nsets: nsets, ways: cfg.Ways}
	if nsets&(nsets-1) == 0 {
		c.setsPow2, c.setMask = true, nsets-1
	} else {
		c.setMagic = ^uint64(0)/nsets + 1
	}
	if cfg.LineSize&(cfg.LineSize-1) == 0 {
		c.linePow2 = true
		c.lineShift = uint(bits.TrailingZeros64(cfg.LineSize))
	}
	gsets := slices * int(nsets)
	c.lines = make([]uint64, gsets*cfg.Ways)
	c.valid = make([]bool, gsets*cfg.Ways)
	c.prefetched = make([]bool, gsets*cfg.Ways)
	c.vcnt = make([]int32, gsets)
	c.dirty = make([]uint64, (gsets+63)/64)
	c.pol = NewPolicyArray(cfg.Policy, gsets, cfg.Ways, c.policySeed)
	return c, nil
}

// policySeed is global set g's replacement seed; per-set seeds reproduce
// the seed code's newSet(…, PolicySeed+s*1000+i). Only RandomPolicy uses it.
func (c *Cache) policySeed(g int) int64 {
	s, i := g/int(c.nsets), g%int(c.nsets)
	return c.cfg.PolicySeed + int64(s*1000+i)
}

// MustNew is New that panics on config errors.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSlices reports the slice count (≥ 1).
func (c *Cache) NumSlices() int { return c.nslices }

// NumSets reports sets per slice.
func (c *Cache) NumSets() uint64 { return c.nsets }

// lineOf converts a physical address to its line address.
func (c *Cache) lineOf(p mem.PAddr) uint64 {
	if c.linePow2 {
		return uint64(p) >> c.lineShift
	}
	return uint64(p) / c.cfg.LineSize
}

// SliceOf computes the slice index for a physical address using the
// XOR-folding hash reverse-engineered for Haswell-class parts (Irazoqui et
// al., DSD'15): each slice-selection bit is the parity of a subset of the
// physical address bits. With one slice it returns 0.
func (c *Cache) SliceOf(p mem.PAddr) int {
	if c.nslices <= 1 {
		return 0
	}
	return SliceHash(uint64(p), c.nslices)
}

// SetOf computes the set index of a physical address. Power-of-two set
// counts index by masking like real hardware; other counts (e.g. the 1536
// sets per Coffee Lake LLC slice) fold by modulo.
func (c *Cache) SetOf(p mem.PAddr) uint64 {
	return c.setIndex(c.lineOf(p))
}

// setIndex folds a line address onto a set number. The non-power-of-two
// fold uses Lemire's fastmod (two multiplies) for line addresses below
// 2^32 — every reachable physical address qualifies, but planted
// corruption can carry arbitrary line words, so larger values fall back to
// the divide.
// Both branches compute exactly line % nsets.
func (c *Cache) setIndex(line uint64) uint64 {
	if c.setsPow2 {
		return line & c.setMask
	}
	if line < 1<<32 {
		hi, _ := bits.Mul64(c.setMagic*line, c.nsets)
		return hi
	}
	return line % c.nsets
}

// gsetOfLine computes the global set number of a line address: the
// slice-major flat index slice*nsets + set.
func (c *Cache) gsetOfLine(line uint64) int {
	set := c.setIndex(line)
	if c.nslices <= 1 {
		return int(set)
	}
	var p uint64
	if c.linePow2 {
		p = line << c.lineShift
	} else {
		p = line * c.cfg.LineSize
	}
	return SliceHash(p, c.nslices)*int(c.nsets) + int(set)
}

// markDirty records a write to global set g.
func (c *Cache) markDirty(g int) { c.dirty[g>>6] |= 1 << (uint(g) & 63) }

// isDirty reports whether global set g was written since the last fork or
// reset.
func (c *Cache) isDirty(g int) bool { return c.dirty[g>>6]&(1<<(uint(g)&63)) != 0 }

// lookupLine scans the line's set, returning the flat way index. The
// subslices let the compiler drop per-way bounds checks.
func (c *Cache) lookupLine(line uint64) (g, idx int, ok bool) {
	g = c.gsetOfLine(line)
	base := g * c.ways
	lines := c.lines[base : base+c.ways]
	if int(c.vcnt[g]) == c.ways {
		// Full set (the steady state): every way is valid, so the tag
		// compare alone decides and the valid-bit load is dropped.
		for w := range lines {
			if lines[w] == line {
				return g, base + w, true
			}
		}
		return g, 0, false
	}
	valid := c.valid[base : base+c.ways]
	for w := range lines {
		if valid[w] && lines[w] == line {
			return g, base + w, true
		}
	}
	return g, 0, false
}

// Contains reports whether the line of p is resident (no state change).
func (c *Cache) Contains(p mem.PAddr) bool {
	_, _, ok := c.lookupLine(c.lineOf(p))
	return ok
}

// Access touches the line of p. On a hit the replacement state is updated;
// on a miss nothing is filled (use Fill). It reports the hit.
func (c *Cache) Access(p mem.PAddr) bool {
	line := c.lineOf(p)
	// Way-predictor fast path: a line address maps to exactly one set, so a
	// verified tag match at the predicted index IS the set's hit way and the
	// scan below would find the same one. It marks nothing: every path that
	// arms the predictor marks the set first, and every fork or reset drops
	// the predictor, so its set is already dirty.
	if c.predOK && c.predLine == line {
		i := c.predIdx
		if c.valid[i] && c.lines[i] == line {
			g := c.predG
			c.pol.Touch(g, i-g*c.ways)
			c.hits++
			if c.prefetched[i] {
				c.prefetched[i] = false
				c.usefulPrefetch++
			}
			return true
		}
	}
	g, i, ok := c.lookupLine(line)
	if ok {
		c.markDirty(g)
		c.pol.Touch(g, i-g*c.ways)
		c.hits++
		if c.prefetched[i] {
			c.prefetched[i] = false
			c.usefulPrefetch++
		}
		c.predLine, c.predIdx, c.predG, c.predOK = line, i, g, true
		return true
	}
	c.misses++
	return false
}

// insert fills the line, returning the evicted line if a valid one was
// displaced. Filling a line that is already resident (e.g. a prefetch of a
// cached line) refreshes its replacement state in place — it must never
// create a duplicate way, or a later flush would only remove one copy.
func (c *Cache) insert(line uint64, asPrefetch bool) (evicted uint64, wasValid bool) {
	g := c.gsetOfLine(line)
	c.markDirty(g)
	base := g * c.ways
	lines := c.lines[base : base+c.ways]
	if int(c.vcnt[g]) == c.ways {
		// Full set: no empty way to track and every way valid, so the scan
		// reduces to the tag compare; a miss goes straight to the victim.
		for w := range lines {
			if lines[w] == line {
				c.pol.Touch(g, w)
				c.predLine, c.predIdx, c.predG, c.predOK = line, base+w, g, true
				return 0, false
			}
		}
		w := c.pol.Victim(g)
		i := base + w
		evicted, wasValid = c.lines[i], true
		c.lines[i] = line
		c.prefetched[i] = asPrefetch
		c.pol.Insert(g, w)
		c.predLine, c.predIdx, c.predG, c.predOK = line, i, g, true
		return evicted, wasValid
	}
	valid := c.valid[base : base+c.ways]
	// One pass finds both the resident way (which wins, exactly as the
	// separate lookup-then-empty scans did) and the first empty way.
	empty := -1
	for w := range lines {
		if !valid[w] {
			if empty < 0 {
				empty = w
			}
			continue
		}
		if lines[w] == line {
			c.pol.Touch(g, w)
			c.predLine, c.predIdx, c.predG, c.predOK = line, base+w, g, true
			return 0, false
		}
	}
	if empty >= 0 {
		i := base + empty
		c.lines[i] = line
		c.valid[i] = true
		c.vcnt[g]++
		c.prefetched[i] = asPrefetch
		c.pol.Insert(g, empty)
		c.predLine, c.predIdx, c.predG, c.predOK = line, i, g, true
		return 0, false
	}
	w := c.pol.Victim(g)
	i := base + w
	evicted, wasValid = c.lines[i], true
	c.lines[i] = line
	c.prefetched[i] = asPrefetch
	c.pol.Insert(g, w)
	c.predLine, c.predIdx, c.predG, c.predOK = line, i, g, true
	return evicted, wasValid
}

// fillMissed is the demand-fill path for a line the caller has just proven
// absent (its Access missed and nothing inserted it since — Hierarchy.Load's
// miss branches). Skipping the residency scan lets a full set (the steady
// state, tracked by vcnt) go straight to victim selection; the state
// mutations are exactly those insert would perform for an absent line.
func (c *Cache) fillMissed(line uint64, asPrefetch bool) (evicted uint64, wasValid bool) {
	g := c.gsetOfLine(line)
	c.markDirty(g)
	base := g * c.ways
	if int(c.vcnt[g]) < c.ways {
		valid := c.valid[base : base+c.ways]
		for w := range valid {
			if !valid[w] {
				i := base + w
				c.lines[i] = line
				c.valid[i] = true
				c.vcnt[g]++
				c.prefetched[i] = asPrefetch
				c.pol.Insert(g, w)
				c.predLine, c.predIdx, c.predG, c.predOK = line, i, g, true
				return 0, false
			}
		}
	}
	w := c.pol.Victim(g)
	i := base + w
	evicted, wasValid = c.lines[i], true
	c.lines[i] = line
	c.prefetched[i] = asPrefetch
	c.pol.Insert(g, w)
	c.predLine, c.predIdx, c.predG, c.predOK = line, i, g, true
	return evicted, wasValid
}

// Fill inserts the line of p as a demand fill, returning the physical line
// address it evicted (valid only when evicted==true).
func (c *Cache) Fill(p mem.PAddr) (evictedLine uint64, evicted bool) {
	return c.insert(c.lineOf(p), false)
}

// FillPrefetch inserts the line of p as a prefetch fill, participating in
// the usefulness accounting (a later demand hit marks it useful).
func (c *Cache) FillPrefetch(p mem.PAddr) (evictedLine uint64, evicted bool) {
	c.prefetchFills++
	return c.insert(c.lineOf(p), true)
}

// PrefetchStats reports prefetch fills and how many were demand-hit before
// eviction (the coverage/accuracy inputs of a prefetcher study).
func (c *Cache) PrefetchStats() (fills, useful uint64) {
	return c.prefetchFills, c.usefulPrefetch
}

// Remove invalidates the line of p if present (clflush / back-invalidate).
func (c *Cache) Remove(p mem.PAddr) bool {
	if g, i, ok := c.lookupLine(c.lineOf(p)); ok {
		c.markDirty(g)
		c.valid[i] = false
		c.vcnt[g]--
		if c.predOK && c.predIdx == i {
			c.predOK = false
		}
		return true
	}
	return false
}

// RemoveLine invalidates by physical line address (for back-invalidation of
// lines reported by Fill).
func (c *Cache) RemoveLine(line uint64) bool {
	p := mem.PAddr(line * c.cfg.LineSize)
	return c.Remove(p)
}

// RegisterMetrics exposes the cache's counters in reg under prefix
// (e.g. "cache.l1"): <prefix>.hits, .misses, .prefetch_fills,
// .useful_prefetches. Samplers read the live counters, so the registry is
// the one read path for hits and misses and the hot path pays nothing.
func (c *Cache) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.RegisterFunc(prefix+".hits", func() uint64 { return c.hits })
	reg.RegisterFunc(prefix+".misses", func() uint64 { return c.misses })
	reg.RegisterFunc(prefix+".prefetch_fills", func() uint64 { return c.prefetchFills })
	reg.RegisterFunc(prefix+".useful_prefetches", func() uint64 { return c.usefulPrefetch })
}

// SliceHash is the standalone XOR-folding slice hash: it computes, for a
// power-of-two slice count, each selection bit as the parity of a fixed
// subset of physical address bits (the published Haswell functions); for
// non-power-of-two counts it folds the same parities modulo n.
func SliceHash(paddr uint64, n int) int {
	// Published XOR masks for the first three selection bits (o0..o2).
	h := int(parity(paddr & 0x1b5f575440))
	h |= int(parity(paddr&0x2eb5faa880)) << 1
	h |= int(parity(paddr&0x3cccc93100)) << 2
	if n&(n-1) == 0 {
		return h & (n - 1)
	}
	return h % n
}

func parity(x uint64) uint64 {
	return uint64(bits.OnesCount64(x)) & 1
}
