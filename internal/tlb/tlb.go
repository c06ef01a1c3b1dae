// Package tlb models a two-level data-TLB with PCID/ASID-tagged entries
// (translations survive context switches, as the paper's threat model
// assumes). Its role in AfterImage is the §4.3 first-touch rule: a load
// whose page misses the whole TLB spends its access walking the page table
// and does not update the IP-stride prefetcher; an access whose translation
// is resident (in either level) trains or triggers it normally.
package tlb

import (
	"fmt"

	"afterimage/internal/mem"
	"afterimage/internal/statehash"
	"afterimage/internal/telemetry"
)

// Config shapes the TLB.
type Config struct {
	Entries     int
	Ways        int
	HitLatency  uint64 // extra cycles on a TLB hit (usually folded into L1)
	WalkLatency uint64 // page-walk penalty on a miss

	// STLBEntries/STLBWays add a unified second-level TLB: a first-level
	// miss that hits the STLB costs STLBLatency instead of a full walk and
	// still counts as "TLB resident" for the prefetcher's first-touch rule
	// (the translation exists; no page-table walk installs state). Zero
	// disables the STLB.
	STLBEntries int
	STLBWays    int
	STLBLatency uint64
}

// DefaultConfig models a 64-entry, 4-way dTLB backed by a 1536-entry
// 12-way STLB with a 9-cycle fill — the Coffee Lake arrangement.
func DefaultConfig() Config {
	return Config{
		Entries: 64, Ways: 4, WalkLatency: 7,
		STLBEntries: 1536, STLBWays: 12, STLBLatency: 9,
	}
}

// level is one set-associative translation array. All per-way state lives
// in contiguous slices indexed set*ways+way (set-major, the order every
// iteration — fork, audit, hash, visit — has always used), so a lookup
// is index arithmetic over four flat arrays instead of chasing per-set heap
// objects.
type level struct {
	ways    int
	setMask uint64
	asids   []uint64 // [set*ways+way]
	vpns    []uint64
	valid   []bool
	stamps  []uint64 // LRU stamps per way
	clocks  []uint64 // virtual clock per set
}

func newLevel(entries, ways int) *level {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("tlb: entries must be a positive multiple of ways")
	}
	nsets := entries / ways
	if nsets&(nsets-1) != 0 {
		panic("tlb: set count must be a power of two")
	}
	return &level{
		ways:    ways,
		setMask: uint64(nsets - 1),
		asids:   make([]uint64, entries),
		vpns:    make([]uint64, entries),
		valid:   make([]bool, entries),
		stamps:  make([]uint64, entries),
		clocks:  make([]uint64, nsets),
	}
}

func (l *level) nsets() int { return int(l.setMask) + 1 }

// touch looks up and refreshes an entry; it reports the flat index hit.
func (l *level) touch(asid, vpn uint64) (int, bool) {
	set := int(vpn & l.setMask)
	base := set * l.ways
	vpns := l.vpns[base : base+l.ways]
	valid := l.valid[base : base+l.ways]
	asids := l.asids[base : base+l.ways]
	for w := range vpns {
		if valid[w] && vpns[w] == vpn && asids[w] == asid {
			i := base + w
			l.clocks[set]++
			l.stamps[i] = l.clocks[set]
			return i, true
		}
	}
	return 0, false
}

func (l *level) contains(asid, vpn uint64) bool {
	base := int(vpn&l.setMask) * l.ways
	vpns := l.vpns[base : base+l.ways]
	valid := l.valid[base : base+l.ways]
	asids := l.asids[base : base+l.ways]
	for w := range vpns {
		if valid[w] && vpns[w] == vpn && asids[w] == asid {
			return true
		}
	}
	return false
}

// install places the translation in its set — empty way first, else the
// LRU-stamped victim — and returns the flat index used.
func (l *level) install(asid, vpn uint64) int {
	set := int(vpn & l.setMask)
	base := set * l.ways
	victim := -1
	for w := 0; w < l.ways; w++ {
		if !l.valid[base+w] {
			victim = base + w
			break
		}
	}
	if victim < 0 {
		victim = base
		for w := 1; w < l.ways; w++ {
			if l.stamps[base+w] < l.stamps[victim] {
				victim = base + w
			}
		}
	}
	l.clocks[set]++
	l.asids[victim], l.vpns[victim], l.valid[victim] = asid, vpn, true
	l.stamps[victim] = l.clocks[set]
	return victim
}

func (l *level) flush() {
	for i := range l.valid {
		l.valid[i] = false
	}
}

// TLB is the two-level translation cache keyed by (ASID, virtual page
// number). Entries from different address spaces coexist, competing only
// for capacity — the PCID behaviour of modern kernels.
type TLB struct {
	cfg      Config
	l1       *level
	stlb     *level // nil when disabled
	hits     uint64
	misses   uint64
	stlbHits uint64

	// One-entry direct-mapped way predictor over the dTLB: the flat index
	// where (predAsid, predVpn) was last seen. It caches only a LOCATION —
	// a use re-verifies set, tag and validity and then performs the exact
	// mutations the full set scan would, so it can only skip the scan,
	// never change observable state.
	predAsid uint64
	predVpn  uint64
	predIdx  int
	predOK   bool
}

// New builds a TLB; entries must divide evenly into ways at each level.
func New(cfg Config) *TLB {
	t := &TLB{cfg: cfg, l1: newLevel(cfg.Entries, cfg.Ways)}
	if cfg.STLBEntries > 0 {
		t.stlb = newLevel(cfg.STLBEntries, cfg.STLBWays)
	}
	return t
}

// Lookup touches the translation for v in the given address space. It
// reports whether the translation was resident (dTLB or STLB) and the
// added latency: 0-ish on a dTLB hit, the STLB fill cost on a dTLB miss
// that the STLB covers, or the full walk penalty — which also installs the
// entry at both levels.
func (t *TLB) Lookup(asid uint64, v mem.VAddr) (hit bool, extraLatency uint64) {
	vpn := v.PageNumber()
	if t.predOK && t.predVpn == vpn && t.predAsid == asid {
		i := t.predIdx
		set := int(vpn & t.l1.setMask)
		// Verify the predicted slot still holds this translation in the set
		// the VPN maps to; the scan below would find exactly this way (the
		// predictor is reset whenever duplicates could be introduced).
		if i >= set*t.l1.ways && i < (set+1)*t.l1.ways &&
			t.l1.valid[i] && t.l1.vpns[i] == vpn && t.l1.asids[i] == asid {
			t.l1.clocks[set]++
			t.l1.stamps[i] = t.l1.clocks[set]
			t.hits++
			return true, t.cfg.HitLatency
		}
	}
	if i, ok := t.l1.touch(asid, vpn); ok {
		t.hits++
		t.predAsid, t.predVpn, t.predIdx, t.predOK = asid, vpn, i, true
		return true, t.cfg.HitLatency
	}
	if t.stlb != nil {
		if _, ok := t.stlb.touch(asid, vpn); ok {
			t.stlbHits++
			i := t.l1.install(asid, vpn)
			t.predAsid, t.predVpn, t.predIdx, t.predOK = asid, vpn, i, true
			return true, t.cfg.STLBLatency
		}
	}
	t.misses++
	i := t.l1.install(asid, vpn)
	t.predAsid, t.predVpn, t.predIdx, t.predOK = asid, vpn, i, true
	if t.stlb != nil {
		t.stlb.install(asid, vpn)
	}
	return false, t.cfg.WalkLatency
}

// Contains reports residency at either level without touching replacement
// state.
func (t *TLB) Contains(asid uint64, v mem.VAddr) bool {
	vpn := v.PageNumber()
	if t.l1.contains(asid, vpn) {
		return true
	}
	return t.stlb != nil && t.stlb.contains(asid, vpn)
}

// Warm pre-installs the translation for v at both levels without counting
// a miss — the paper's threat model assumes victim pages are TLB-resident.
func (t *TLB) Warm(asid uint64, v mem.VAddr) {
	vpn := v.PageNumber()
	if !t.l1.contains(asid, vpn) {
		t.l1.install(asid, vpn)
	}
	if t.stlb != nil && !t.stlb.contains(asid, vpn) {
		t.stlb.install(asid, vpn)
	}
}

// FlushAll invalidates every translation at both levels (a full shootdown;
// per-switch flushes are not used because entries are PCID-tagged).
func (t *TLB) FlushAll() {
	t.l1.flush()
	if t.stlb != nil {
		t.stlb.flush()
	}
	t.predOK = false
}

// STLBHits reports how many first-level misses the STLB covered.
func (t *TLB) STLBHits() uint64 { return t.stlbHits }

// RegisterMetrics exposes the TLB counters in reg: tlb.hits, tlb.misses,
// tlb.stlb_hits. Samplers read the live counters, so the registry is the
// one read path for them and the hot path pays nothing.
func (t *TLB) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterFunc("tlb.hits", func() uint64 { return t.hits })
	reg.RegisterFunc("tlb.misses", func() uint64 { return t.misses })
	reg.RegisterFunc("tlb.stlb_hits", func() uint64 { return t.stlbHits })
}

// Audit deep-checks both levels: LRU stamps never ahead of the set clock and
// no duplicate valid (asid, vpn) pairs within a set. It returns every broken
// rule. Messages print each ASID through normalize, which maps raw ASIDs
// onto process-independent values as in StateHash.
func (t *TLB) Audit(normalize func(asid uint64) uint64) []error {
	errs := t.l1.audit("dtlb", normalize)
	if t.stlb != nil {
		errs = append(errs, t.stlb.audit("stlb", normalize)...)
	}
	return errs
}

func (l *level) audit(name string, normalize func(uint64) uint64) []error {
	var errs []error
	for si := 0; si < l.nsets(); si++ {
		base := si * l.ways
		for i := 0; i < l.ways; i++ {
			if l.stamps[base+i] > l.clocks[si] {
				errs = append(errs, fmt.Errorf("tlb %s: set %d way %d stamp %d ahead of clock %d", name, si, i, l.stamps[base+i], l.clocks[si]))
			}
			if !l.valid[base+i] {
				continue
			}
			if vpnSet := l.vpns[base+i] & l.setMask; vpnSet != uint64(si) {
				errs = append(errs, fmt.Errorf("tlb %s: set %d way %d holds vpn %#x which maps to set %d", name, si, i, l.vpns[base+i], vpnSet))
			}
			for j := i + 1; j < l.ways; j++ {
				if l.valid[base+j] && l.vpns[base+j] == l.vpns[base+i] && l.asids[base+j] == l.asids[base+i] {
					errs = append(errs, fmt.Errorf("tlb %s: set %d holds duplicate (asid %d, vpn %#x) in ways %d and %d", name, si, normalize(l.asids[base+i]), l.vpns[base+i], i, j))
				}
			}
		}
	}
	return errs
}

// VisitEntries calls fn for every valid (asid, vpn) translation at either
// level, in deterministic order. The machine's TLB↔page-table coherence
// checker walks these against the address spaces' page tables.
func (t *TLB) VisitEntries(fn func(asid, vpn uint64)) {
	t.l1.visit(fn)
	if t.stlb != nil {
		t.stlb.visit(fn)
	}
}

func (l *level) visit(fn func(asid, vpn uint64)) {
	for i, v := range l.valid {
		if v {
			fn(l.asids[i], l.vpns[i])
		}
	}
}

// CorruptInsert force-installs a translation at the first level without any
// page-table backing — the desync a missed shootdown would leave behind. The
// coherence audit must flag it. It can create in-set duplicates, so the way
// predictor is reset (its verification assumes a translation occupies at
// most one way).
func (t *TLB) CorruptInsert(asid, vpn uint64) {
	t.l1.install(asid, vpn)
	t.predOK = false
}

// StateHash folds the TLB's complete state into a stable digest. ASIDs are
// allocated from a process-global counter, so the caller supplies normalize
// to map raw ASIDs onto process-independent values; nil means identity.
func (t *TLB) StateHash(normalize func(asid uint64) uint64) uint64 {
	if normalize == nil {
		normalize = func(a uint64) uint64 { return a }
	}
	h := statehash.New()
	t.l1.hashInto(h, normalize)
	if t.stlb != nil {
		t.stlb.hashInto(h, normalize)
	}
	h.U64(t.hits).U64(t.misses).U64(t.stlbHits)
	return h.Sum()
}

func (l *level) hashInto(h *statehash.Hash, normalize func(uint64) uint64) {
	for si := 0; si < l.nsets(); si++ {
		h.U64(l.clocks[si])
		base := si * l.ways
		for i := 0; i < l.ways; i++ {
			h.Bool(l.valid[base+i])
			if l.valid[base+i] {
				h.U64(normalize(l.asids[base+i])).U64(l.vpns[base+i])
			}
			h.U64(l.stamps[base+i])
		}
	}
}
