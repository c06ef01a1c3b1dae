// Package mem models the memory-management substrate of the AfterImage
// simulator: a physical frame allocator, per-address-space page tables,
// mmap-style mappings with the two pool behaviours exploited by the paper's
// page-boundary experiment (Table 1) — a reclaimable pool whose virtual pages
// alias a shared physical frame, and a MAP_LOCKED pool with pinned unique
// frames — shared mappings for Flush+Reload, and user-space ASLR with page
// granularity (so the low 12 address bits survive, as §5.2 relies on).
package mem

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"afterimage/internal/detrand"
)

// PageSize is the (only) supported page size, 4 KiB.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// LineSize is the cache line size in bytes.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// VAddr is a virtual byte address.
type VAddr uint64

// PAddr is a physical byte address.
type PAddr uint64

// PageNumber returns the virtual page number of a.
func (a VAddr) PageNumber() uint64 { return uint64(a) >> PageShift }

// PageOffset returns the offset of a within its page.
func (a VAddr) PageOffset() uint64 { return uint64(a) & (PageSize - 1) }

// Line returns the cache line index of the physical address.
func (a PAddr) Line() uint64 { return uint64(a) >> LineShift }

// Frame returns the physical frame number of a.
func (a PAddr) Frame() uint64 { return uint64(a) >> PageShift }

// MapKind selects the pool behaviour of a mapping.
type MapKind int

const (
	// MapReclaimable models the paper's resource-saving pool: the OS is free
	// to reclaim untouched frames, so every page of the region aliases one
	// shared physical frame ("many pages have the same physical address",
	// artifact appendix A.4).
	MapReclaimable MapKind = iota
	// MapLocked models mmap(MAP_LOCKED): each virtual page owns a distinct
	// pinned physical frame.
	MapLocked
	// MapShared maps the same physical frames into several address spaces
	// (mmap MAP_SHARED), the substrate for Flush+Reload.
	MapShared
)

// String names the mapping kind.
func (k MapKind) String() string {
	switch k {
	case MapReclaimable:
		return "reclaimable"
	case MapLocked:
		return "locked"
	case MapShared:
		return "shared"
	default:
		return fmt.Sprintf("MapKind(%d)", int(k))
	}
}

// PhysMemory hands out physical frames.
type PhysMemory struct {
	nextFrame uint64
	frames    uint64 // capacity in frames
}

// NewPhysMemory builds a physical memory with the given capacity in bytes.
func NewPhysMemory(bytes uint64) *PhysMemory {
	return &PhysMemory{nextFrame: 1, frames: bytes / PageSize} // frame 0 reserved
}

// AllocFrame returns a fresh physical frame number.
func (p *PhysMemory) AllocFrame() (uint64, error) {
	if p.nextFrame >= p.frames {
		return 0, fmt.Errorf("mem: out of physical frames (capacity %d)", p.frames)
	}
	f := p.nextFrame
	p.nextFrame++
	return f, nil
}

// Mapping describes one mmap-ed region inside an address space.
type Mapping struct {
	Base   VAddr
	Length uint64
	Kind   MapKind
	frames []uint64 // physical frame per page
}

// End returns the first address past the mapping.
func (m *Mapping) End() VAddr { return m.Base + VAddr(m.Length) }

// Frames exposes the physical frame of each page (for tests and shared maps).
func (m *Mapping) Frames() []uint64 { return m.frames }

// ptChunkShift sizes the radix page-table leaves: 512 translations per
// leaf, so one leaf spans 2 MiB of virtual address space.
const (
	ptChunkShift = 9
	ptChunkSize  = 1 << ptChunkShift
	ptChunkMask  = ptChunkSize - 1
	// ptMaxDirSpan caps the directory at 2^21 chunks (4 TiB of coverage,
	// a 16 MiB pointer slice worst case). VPNs farther from the anchor than
	// that — kernel-half addresses, top-of-address-space probes — fall into
	// the overflow map instead of ballooning the directory.
	ptMaxDirSpan = 1 << 21
)

// pageTable is a two-level radix VPN→PFN map replacing the flat Go map on
// the translation hot path: chunk directory → leaf array, anchored at the
// first chunk installed (user mappings cluster around the mmap base, so the
// directory stays small and dense). Leaf entries store PFN+1 so zero means
// unmapped; unallocated leaves stay nil. A lookup is two array indexes —
// no hashing, no per-access allocation.
type pageTable struct {
	baseChunk uint64            // chunk index covered by dir[0]
	dir       [][]uint64        // leaf per chunk; entry = PFN+1, 0 = unmapped
	overflow  map[uint64]uint64 // VPN -> PFN outside directory coverage
}

// lookup resolves one VPN. Directory coverage can grow after an entry
// landed in overflow, so a directory miss still consults the overflow map
// (a nil check in the common case).
func (pt *pageTable) lookup(vpn uint64) (uint64, bool) {
	c := vpn >> ptChunkShift
	if c >= pt.baseChunk {
		if i := c - pt.baseChunk; i < uint64(len(pt.dir)) {
			if leaf := pt.dir[i]; leaf != nil {
				if e := leaf[vpn&ptChunkMask]; e != 0 {
					return e - 1, true
				}
			}
		}
	}
	if pt.overflow != nil {
		pfn, ok := pt.overflow[vpn]
		return pfn, ok
	}
	return 0, false
}

// set installs one translation, growing the directory (with doubling
// headroom — installs walk monotonically increasing bases) or spilling to
// the overflow map when the VPN is too far from the anchor.
func (pt *pageTable) set(vpn, pfn uint64) {
	c := vpn >> ptChunkShift
	if pt.dir == nil {
		pt.baseChunk = c
		pt.dir = make([][]uint64, 1)
	}
	lo, hi := pt.baseChunk, pt.baseChunk+uint64(len(pt.dir))
	switch {
	case c < lo:
		span := hi - c
		if span > ptMaxDirSpan {
			pt.setOverflow(vpn, pfn)
			return
		}
		if grow := 2 * uint64(len(pt.dir)); span < grow && grow <= hi && grow <= ptMaxDirSpan {
			span = grow
		}
		ndir := make([][]uint64, span)
		copy(ndir[span-uint64(len(pt.dir)):], pt.dir)
		pt.dir = ndir
		pt.baseChunk = hi - span
	case c >= hi:
		span := c - lo + 1
		if span > ptMaxDirSpan {
			pt.setOverflow(vpn, pfn)
			return
		}
		if grow := 2 * uint64(len(pt.dir)); span < grow && grow <= ptMaxDirSpan {
			span = grow
		}
		ndir := make([][]uint64, span)
		copy(ndir, pt.dir)
		pt.dir = ndir
	}
	i := c - pt.baseChunk
	leaf := pt.dir[i]
	if leaf == nil {
		leaf = make([]uint64, ptChunkSize)
		pt.dir[i] = leaf
	}
	leaf[vpn&ptChunkMask] = pfn + 1
}

func (pt *pageTable) setOverflow(vpn, pfn uint64) {
	if pt.overflow == nil {
		pt.overflow = make(map[uint64]uint64)
	}
	pt.overflow[vpn] = pfn
}

// AddressSpace is one process's (or the kernel's) virtual address space.
type AddressSpace struct {
	// ID is a unique address-space identifier (the PCID/ASID used to tag
	// TLB entries, so translations survive context switches).
	ID       uint64
	Name     string
	phys     *PhysMemory
	pages    pageTable // VPN -> PFN radix table
	mappings []*Mapping
	nextBase VAddr
	aslr     *rand.Rand      // nil disables ASLR
	aslrSrc  *detrand.Source // counting source backing aslr (nil iff aslr is)
}

// nextASID is atomic: labs on parallel campaign workers allocate address
// spaces concurrently, and ASIDs are only ever compared for equality (TLB
// entry tags), so allocation order does not affect any simulated outcome.
var nextASID atomic.Uint64

// NewAddressSpace creates an address space backed by phys. When aslrSeed is
// non-zero, mmap bases are randomised at page granularity (Level-2 ASLR);
// a zero seed disables randomisation for reproducible layouts.
func NewAddressSpace(name string, phys *PhysMemory, aslrSeed int64) *AddressSpace {
	as := &AddressSpace{
		ID:       nextASID.Add(1),
		Name:     name,
		phys:     phys,
		nextBase: VAddr(0x5555_0000_0000),
	}
	if aslrSeed != 0 {
		// detrand is stream-identical to rand.New(rand.NewSource(seed)); the
		// counting source is what lets Clone resume ASLR mid-stream.
		as.aslr, as.aslrSrc = detrand.New(aslrSeed)
	}
	return as
}

// pickBase chooses the base address for a fresh mapping of n pages.
func (as *AddressSpace) pickBase(pages uint64) VAddr {
	base := as.nextBase
	if as.aslr != nil {
		// Randomise bits 12..33: page-aligned, so the low 12 bits of every
		// address inside the mapping are unaffected by ASLR.
		slide := VAddr(as.aslr.Int63n(1<<22)) << PageShift
		base += slide
	}
	as.nextBase = base + VAddr((pages+16)*PageSize) // guard gap
	return base
}

// Mmap creates a new mapping of length bytes (rounded up to whole pages)
// with the requested pool behaviour.
func (as *AddressSpace) Mmap(length uint64, kind MapKind) (*Mapping, error) {
	if length == 0 {
		return nil, fmt.Errorf("mem: zero-length mmap")
	}
	pages := (length + PageSize - 1) / PageSize
	m := &Mapping{
		Base:   as.pickBase(pages),
		Length: pages * PageSize,
		Kind:   kind,
		frames: make([]uint64, pages),
	}
	switch kind {
	case MapReclaimable:
		// All pages alias one shared frame.
		f, err := as.phys.AllocFrame()
		if err != nil {
			return nil, err
		}
		for i := range m.frames {
			m.frames[i] = f
		}
	case MapLocked, MapShared:
		for i := range m.frames {
			f, err := as.phys.AllocFrame()
			if err != nil {
				return nil, err
			}
			m.frames[i] = f
		}
	default:
		return nil, fmt.Errorf("mem: unknown map kind %v", kind)
	}
	as.install(m)
	return m, nil
}

// MapExisting installs an existing mapping's physical frames at a fresh base
// in this address space — the receiving side of mmap(MAP_SHARED).
func (as *AddressSpace) MapExisting(src *Mapping) *Mapping {
	pages := uint64(len(src.frames))
	m := &Mapping{
		Base:   as.pickBase(pages),
		Length: pages * PageSize,
		Kind:   MapShared,
		frames: append([]uint64(nil), src.frames...),
	}
	as.install(m)
	return m
}

func (as *AddressSpace) install(m *Mapping) {
	vpn := m.Base.PageNumber()
	for i, f := range m.frames {
		as.pages.set(vpn+uint64(i), f)
	}
	as.mappings = append(as.mappings, m)
}

// Translate resolves a virtual address to a physical one. The boolean is
// false when the address is unmapped.
func (as *AddressSpace) Translate(v VAddr) (PAddr, bool) {
	pfn, ok := as.pages.lookup(v.PageNumber())
	if !ok {
		return 0, false
	}
	return PAddr(pfn<<PageShift | v.PageOffset()), true
}

// Mappings exposes the installed mappings in creation order.
func (as *AddressSpace) Mappings() []*Mapping { return as.mappings }

// MustMmap is Mmap that panics on failure — for tests and examples where
// physical memory exhaustion is a programming error.
func (as *AddressSpace) MustMmap(length uint64, kind MapKind) *Mapping {
	m, err := as.Mmap(length, kind)
	if err != nil {
		panic(err)
	}
	return m
}

// Clone returns a deep copy of the physical memory allocator.
func (p *PhysMemory) Clone() *PhysMemory {
	c := *p
	return &c
}

// clone deep-copies a mapping, including its frame slice.
func (m *Mapping) clone() *Mapping {
	c := *m
	c.frames = append([]uint64(nil), m.frames...)
	return &c
}

// clone deep-copies the radix table: fresh directory with copied leaves
// (nil leaves stay nil, preserving sparseness) and a copied overflow map.
func (pt *pageTable) clone() pageTable {
	c := pageTable{baseChunk: pt.baseChunk}
	if pt.dir != nil {
		c.dir = make([][]uint64, len(pt.dir))
		for i, leaf := range pt.dir {
			if leaf != nil {
				c.dir[i] = append([]uint64(nil), leaf...)
			}
		}
	}
	if pt.overflow != nil {
		c.overflow = make(map[uint64]uint64, len(pt.overflow))
		for k, v := range pt.overflow {
			c.overflow[k] = v
		}
	}
	return c
}

// Clone returns an independent deep copy of the address space backed by
// phys (normally the forked machine's own PhysMemory clone). The copy gets
// a fresh ASID — TLB entries tagged with the parent's ASID must be remapped
// by the caller — while page tables, mappings, allocation cursor, and ASLR
// stream position are byte-identical, so subsequent Mmap calls in parent
// and clone pick the same bases.
func (as *AddressSpace) Clone(phys *PhysMemory) *AddressSpace {
	c := &AddressSpace{
		ID:       nextASID.Add(1),
		Name:     as.Name,
		phys:     phys,
		pages:    as.pages.clone(),
		nextBase: as.nextBase,
	}
	c.mappings = make([]*Mapping, len(as.mappings))
	for i, m := range as.mappings {
		c.mappings[i] = m.clone()
	}
	if as.aslrSrc != nil {
		src := as.aslrSrc.Clone()
		c.aslr, c.aslrSrc = rand.New(src), src
	}
	return c
}
