// Package evict constructs minimal eviction sets (MESs) for Prime+Probe on
// the sliced last-level cache. Like the paper's artifact (appendix A.4), it
// assumes the attacker can translate its own virtual addresses to physical
// ones (/proc/pid/pagemap with admin capability) and knows the slice-
// selection hash of the microarchitecture (Irazoqui et al. for Haswell), so
// eviction sets are computed, not searched.
package evict

import (
	"fmt"

	"afterimage/internal/mem"
	"afterimage/internal/sim"
)

// Set is one minimal eviction set: exactly associativity-many lines mapping
// to a single (slice, set) pair of the LLC.
type Set struct {
	Slice int
	Index uint64
	Lines []mem.VAddr

	// order caches the zigzag visit order (derived from len(Lines) only),
	// so the prime/probe hot loops do not rebuild it every call.
	order []int
}

// Builder allocates a locked memory pool in the attacker's address space and
// carves eviction sets out of it.
type Builder struct {
	env  *sim.Env
	pool *mem.Mapping
	// groups indexes pool lines densely by global (slice, set) number
	// (slice*nsets+set): classification and lookup are pure index arithmetic
	// instead of a hashed map over a 128-bit key, which profiling showed
	// dominated the whole Prime+Probe benchmark.
	groups  [][]mem.VAddr
	nsets   uint64
	primeIP uint64
	probeIP uint64
}

// NewBuilder mmaps a locked pool of the given page count and pre-classifies
// every line. Pool sizing: one line lands in a given (slice, set) with
// probability 1/(sets·slices/64), so covering a 16-way set needs a few
// thousand pages; the artifact suggests enlarging the pool when building
// fails.
func NewBuilder(env *sim.Env, poolPages int, primeIP, probeIP uint64) (*Builder, error) {
	if poolPages <= 0 {
		return nil, fmt.Errorf("evict: pool must have at least one page")
	}
	b := &Builder{
		env:     env,
		pool:    env.Mmap(uint64(poolPages)*mem.PageSize, mem.MapLocked),
		primeIP: primeIP,
		probeIP: probeIP,
	}
	llc := env.Machine().Mem.LLC
	as := env.Process().AS
	b.nsets = llc.NumSets()
	ngroups := llc.NumSlices() * int(b.nsets)
	// Two passes: count each group's population, carve one contiguous
	// backing array into per-group sub-slices, then fill. Line order within
	// a group (ascending pool offset) matches the old append order exactly.
	counts := make([]int, ngroups)
	gidx := make([]int32, b.pool.Length/mem.LineSize)
	for off, li := uint64(0), 0; off < b.pool.Length; off, li = off+mem.LineSize, li+1 {
		pa, ok := as.Translate(b.pool.Base + mem.VAddr(off))
		if !ok {
			return nil, fmt.Errorf("evict: pool page unexpectedly unmapped")
		}
		g := llc.SliceOf(pa)*int(b.nsets) + int(llc.SetOf(pa))
		gidx[li] = int32(g)
		counts[g]++
	}
	backing := make([]mem.VAddr, b.pool.Length/mem.LineSize)
	b.groups = make([][]mem.VAddr, ngroups)
	next := 0
	for g, n := range counts {
		b.groups[g] = backing[next : next : next+n]
		next += n
	}
	for off, li := uint64(0), 0; off < b.pool.Length; off, li = off+mem.LineSize, li+1 {
		g := gidx[li]
		b.groups[g] = append(b.groups[g], b.pool.Base+mem.VAddr(off))
	}
	return b, nil
}

// ForAddress returns a minimal eviction set congruent with the physical
// address pa (same LLC slice and set).
func (b *Builder) ForAddress(pa mem.PAddr) (*Set, error) {
	llc := b.env.Machine().Mem.LLC
	slice, index := llc.SliceOf(pa), llc.SetOf(pa)
	ways := llc.Config().Ways
	lines := b.groups[slice*int(b.nsets)+int(index)]
	if len(lines) < ways {
		return nil, fmt.Errorf("evict: pool has %d/%d congruent lines for slice %d set %d; enlarge the pool",
			len(lines), ways, slice, index)
	}
	return &Set{Slice: slice, Index: index, Lines: append([]mem.VAddr(nil), lines[:ways]...)}, nil
}

// ForVictimPage builds one eviction set per cache line of the page holding
// the given physical address, in line order — the monitoring configuration
// of Figure 13 (64 sets spanning a 4 KiB page).
func (b *Builder) ForVictimPage(pagePA mem.PAddr) ([]*Set, error) {
	base := mem.PAddr(pagePA.Frame() << mem.PageShift)
	sets := make([]*Set, 0, mem.PageSize/mem.LineSize)
	for off := uint64(0); off < mem.PageSize; off += mem.LineSize {
		s, err := b.ForAddress(base + mem.PAddr(off))
		if err != nil {
			return nil, fmt.Errorf("evict: line %d: %w", off/mem.LineSize, err)
		}
		sets = append(sets, s)
	}
	return sets, nil
}

// zigzag returns the indices 0..n-1 in the order 0, n-1, 1, n-2, …: every
// consecutive address delta over equally spaced lines is distinct, so the
// prime/probe loops can never saturate the IP-stride entry they run under
// (congruent lines sit at regular intervals in the pool, and a monotone
// sweep would train the prefetcher and spray phantom prefetches).
func zigzag(n int) []int {
	order := make([]int, 0, n)
	lo, hi := 0, n-1
	for lo <= hi {
		order = append(order, lo)
		if lo != hi {
			order = append(order, hi)
		}
		lo++
		hi--
	}
	return order
}

// zigzagOrder returns the set's cached zigzag visit order, rebuilding it if
// the line count changed since it was computed.
func (s *Set) zigzagOrder() []int {
	if len(s.order) != len(s.Lines) {
		s.order = zigzag(len(s.Lines))
	}
	return s.order
}

// Prime loads every line of the set, filling the monitored LLC set with
// attacker data. Lines are touched twice in zigzag order so the whole set
// survives its own insertion churn without training the prefetcher.
func (s *Set) Prime(env *sim.Env) {
	order := s.zigzagOrder()
	for _, i := range order {
		env.Load(ipFor(s, 0), s.Lines[i])
	}
	for _, i := range order {
		env.Load(ipFor(s, 1), s.Lines[i])
	}
}

// Probe re-touches every line (zigzag order, see Prime) and returns the
// summed measured latency. A large value means some lines were evicted —
// i.e. the victim touched this set.
func (s *Set) Probe(env *sim.Env) uint64 {
	var total uint64
	for _, i := range s.zigzagOrder() {
		total += env.TimeLoad(ipFor(s, 2), s.Lines[i])
	}
	return total
}

// ipFor derives distinct probe IPs per set so the attacker's own P+P loads
// do not collide with trained low-8-bit entries: bits 8+ vary per set and
// the low byte is pinned to a reserved value.
func ipFor(s *Set, role uint64) uint64 {
	return 0x40_0000 | uint64(s.Index)<<16 | uint64(s.Slice)<<9 | role<<8 | 0xE0
}

// PoolPages exposes the backing pool size (for diagnostics).
func (b *Builder) PoolPages() int { return int(b.pool.Length / mem.PageSize) }
