package cache

import "afterimage/internal/detrand"

// Fork support: deep-copy a cache level (and the whole hierarchy) so a
// forked machine can diverge from a warmed parent without sharing mutable
// state. Fork is the only way cache state is copied, and the flat-slice
// layout makes it a handful of bulk slice copies — no per-set objects to
// walk. Profiling note: forking a warmed Coffee Lake machine copies about
// 3.8 MB, almost all of it the LLC's line, valid, prefetched and stamp
// arrays, in about 0.6 ms (BenchmarkMachineFork). That is far below the
// cost of re-warming and keeps copy-on-write bookkeeping off the
// per-access hot path, but a sweep point now pays about as much for the
// fork as for the state hash, and unlike the hash's single fold, the copy
// is not a floor.

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

// Fork returns an independent deep copy of the cache. Tag/valid/prefetched
// arrays, replacement state and counters are copied; the way predictor is
// dropped (predOK=false) — it caches only a location, so clearing it never
// changes observable state.
func (c *Cache) Fork() *Cache {
	f := *c
	f.lines = append([]uint64(nil), c.lines...)
	f.valid = append([]bool(nil), c.valid...)
	f.prefetched = append([]bool(nil), c.prefetched...)
	f.vcnt = append([]int32(nil), c.vcnt...)
	f.pol = c.pol.Clone()
	f.predLine, f.predIdx, f.predG, f.predOK = 0, 0, 0, false
	return &f
}

// Fork returns an independent deep copy of the whole hierarchy.
func (h *Hierarchy) Fork() *Hierarchy {
	return &Hierarchy{L1: h.L1.Fork(), L2: h.L2.Fork(), LLC: h.LLC.Fork(), Lat: h.Lat}
}
