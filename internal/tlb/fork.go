package tlb

// Fork and reset support: deep-copy the TLB for Machine.Fork, or return it
// to its constructor state for Machine.Boot. Forked address spaces get
// fresh ASIDs (the allocator is process-global), so the copied entries must
// be re-tagged from parent ASIDs to the fork's — otherwise the warmed
// translations would be invisible to the forked processes and the fork's
// first loads would take page walks the parent didn't.

// fork deep-copies one translation array, rewriting the ASID of every
// VALID entry through remap. Invalid slots keep their stale tags verbatim
// (they are unobservable, and the hash skips them), and remap is expected
// to pass unknown ASIDs through unchanged so audit-visible corruption —
// e.g. a CorruptInsert entry tagged with a dead ASID — survives the fork
// for the coherence checker to flag.
func (l *level) fork(remap func(asid uint64) uint64) *level {
	c := &level{
		ways:    l.ways,
		setMask: l.setMask,
		asids:   append([]uint64(nil), l.asids...),
		vpns:    append([]uint64(nil), l.vpns...),
		valid:   append([]bool(nil), l.valid...),
		stamps:  append([]uint64(nil), l.stamps...),
		clocks:  append([]uint64(nil), l.clocks...),
	}
	for i, v := range c.valid {
		if v {
			c.asids[i] = remap(c.asids[i])
		}
	}
	return c
}

// Fork returns an independent deep copy with valid entries re-tagged
// through remap (nil means identity). It is the only way TLB state is
// copied. The way predictor is dropped: it caches only a location, and the
// remap invalidates its (asid, vpn) key anyway.
func (t *TLB) Fork(remap func(asid uint64) uint64) *TLB {
	if remap == nil {
		remap = func(a uint64) uint64 { return a }
	}
	f := &TLB{
		cfg:      t.cfg,
		l1:       t.l1.fork(remap),
		hits:     t.hits,
		misses:   t.misses,
		stlbHits: t.stlbHits,
	}
	if t.stlb != nil {
		f.stlb = t.stlb.fork(remap)
	}
	return f
}

// Reset returns the TLB to the state New builds from its config, in place:
// both levels' arrays are cleared, the counters zeroed and the way
// predictor dropped.
func (t *TLB) Reset() {
	t.l1.reset()
	if t.stlb != nil {
		t.stlb.reset()
	}
	*t = TLB{cfg: t.cfg, l1: t.l1, stlb: t.stlb}
}

// reset clears every entry, LRU stamp and set clock.
func (l *level) reset() {
	clear(l.asids)
	clear(l.vpns)
	clear(l.valid)
	clear(l.stamps)
	clear(l.clocks)
}
