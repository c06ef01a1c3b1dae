package cache

import (
	"fmt"

	"afterimage/internal/mem"
	"afterimage/internal/telemetry"
)

// Level identifies where an access was served.
type Level int

// Hierarchy levels, ordered from fastest to slowest.
const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelDRAM
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Latencies carries the load-to-use latency (cycles) of each level.
type Latencies struct {
	L1, L2, LLC, DRAM uint64
}

// HierarchyConfig describes the full three-level hierarchy.
type HierarchyConfig struct {
	L1, L2, LLC Config
	Lat         Latencies
}

// Hierarchy is an inclusive L1D/L2/LLC stack. Inclusivity means every line
// in L1 or L2 is also in the LLC, so evicting an LLC line back-invalidates
// the inner levels — the property Prime+Probe on the LLC relies on.
type Hierarchy struct {
	L1, L2, LLC *Cache
	Lat         Latencies
}

// NewHierarchy builds the stack from a config.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1, err := New(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	llc, err := New(cfg.LLC)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1: l1, L2: l2, LLC: llc, Lat: cfg.Lat}, nil
}

// Load performs a demand load of the line containing p: it reports the level
// that served it and its latency, and fills all levels on the way in.
func (h *Hierarchy) Load(p mem.PAddr) (Level, uint64) {
	// Each miss branch fills via fillMissed: the Access that just missed
	// proved the line absent from that level, and nothing on the way here
	// re-inserts it (outer-level fills and back-invalidations never add
	// lines to an inner level), so the residency re-scan Fill would do is
	// skipped. The mutations are identical to Fill's for an absent line.
	switch {
	case h.L1.Access(p):
		return LevelL1, h.Lat.L1
	case h.L2.Access(p):
		h.L1.fillMissed(h.L1.lineOf(p), false)
		return LevelL2, h.Lat.L2
	case h.LLC.Access(p):
		h.L2.fillMissed(h.L2.lineOf(p), false)
		h.L1.fillMissed(h.L1.lineOf(p), false)
		return LevelLLC, h.Lat.LLC
	default:
		if ev, ok := h.LLC.fillMissed(h.LLC.lineOf(p), false); ok {
			// Inclusive: a line leaving the LLC leaves the inner levels too.
			// The evicted line is never p's own line, so p stays absent.
			h.L2.RemoveLine(ev)
			h.L1.RemoveLine(ev)
		}
		h.L2.fillMissed(h.L2.lineOf(p), false)
		h.L1.fillMissed(h.L1.lineOf(p), false)
		return LevelDRAM, h.Lat.DRAM
	}
}

// Probe reports the level that would serve p without disturbing any state.
func (h *Hierarchy) Probe(p mem.PAddr) Level {
	switch {
	case h.L1.Contains(p):
		return LevelL1
	case h.L2.Contains(p):
		return LevelL2
	case h.LLC.Contains(p):
		return LevelLLC
	default:
		return LevelDRAM
	}
}

// Fill installs the line of p into every level, maintaining inclusivity.
// Prefetchers use this as the fill path for prefetch requests.
func (h *Hierarchy) Fill(p mem.PAddr) {
	if ev, ok := h.LLC.Fill(p); ok {
		// Inclusive: a line leaving the LLC must leave the inner levels too.
		h.L2.RemoveLine(ev)
		h.L1.RemoveLine(ev)
	}
	h.fillL2(p)
	h.fillL1(p)
}

// Prefetch installs the line of p into every level as a prefetch fill:
// identical to Fill for the cache contents, but the line participates in
// the usefulness accounting until its first demand hit.
func (h *Hierarchy) Prefetch(p mem.PAddr) {
	if ev, ok := h.LLC.FillPrefetch(p); ok {
		h.L2.RemoveLine(ev)
		h.L1.RemoveLine(ev)
	}
	h.L2.FillPrefetch(p)
	h.L1.FillPrefetch(p)
}

func (h *Hierarchy) fillL1(p mem.PAddr) {
	h.L1.Fill(p) // L1 evictions fall back to L2/LLC which already hold the line
}

func (h *Hierarchy) fillL2(p mem.PAddr) {
	h.L2.Fill(p)
}

// RegisterMetrics exposes all three levels in reg under the cache.l1,
// cache.l2 and cache.llc namespaces.
func (h *Hierarchy) RegisterMetrics(reg *telemetry.Registry) {
	h.L1.RegisterMetrics(reg, "cache.l1")
	h.L2.RegisterMetrics(reg, "cache.l2")
	h.LLC.RegisterMetrics(reg, "cache.llc")
}

// Flush removes the line of p from every level (clflush).
func (h *Hierarchy) Flush(p mem.PAddr) {
	h.L1.Remove(p)
	h.L2.Remove(p)
	h.LLC.Remove(p)
}

// Contains reports whether any level holds the line of p.
func (h *Hierarchy) Contains(p mem.PAddr) bool { return h.Probe(p) != LevelDRAM }

// levels returns the three levels, or three nils for a nil h: the
// constructor state, as ResetFrom and AuditFrom read a nil source.
func (h *Hierarchy) levels() [3]*Cache {
	if h == nil {
		return [3]*Cache{}
	}
	return [3]*Cache{h.L1, h.L2, h.LLC}
}

// Audit deep-checks every level plus the cross-level inclusivity invariant:
// each valid L1 or L2 line must also be resident in the LLC. It returns
// every broken rule. It is AuditFrom(nil): a level whose origin is nil,
// which has been booted or reset to the constructor state since it was
// last copied, is checked over its dirty sets only (see Cache.Audit), any
// other level whole.
func (h *Hierarchy) Audit() []error { return h.AuditFrom(nil) }

// AuditFrom is Audit for a hierarchy last forked or reset from src, where
// src audited clean and has not changed since: the sets a level did not
// dirty still equal src's, so each level whose origin is src's is checked
// over its dirty sets only, and reports exactly what a whole audit would.
// The caller vouches for src (sim.Machine.Audit passes its origin only
// while the machine tracks it and the origin's last audit found nothing).
// A nil src is the constructor state, which is sound, so a level whose
// origin is nil is checked over its dirty sets too. A level with another
// origin is checked whole. The inclusivity check always stays whole: an
// LLC eviction in a dirty set can strand a line that a clean L1 set holds.
// On a booted level the clean sets hold no valid lines, so the walk is
// short.
func (h *Hierarchy) AuditFrom(src *Hierarchy) []error {
	from := src.levels()
	var errs []error
	for i, c := range h.levels() {
		errs = append(errs, c.audit(c.origin == from[i])...)
	}
	for _, inner := range []*Cache{h.L1, h.L2} {
		c := inner
		c.VisitLines(func(line uint64) bool {
			if !h.LLC.Contains(lineAddr(line, h.LLC.cfg.LineSize)) {
				errs = append(errs, fmt.Errorf("hierarchy: %s line %#x not present in LLC (inclusivity broken)", c.cfg.Name, line))
			}
			return true
		})
	}
	return errs
}

// CorruptInclusivity silently drops the first valid L1 line from the LLC
// only, breaking the inclusion invariant without touching the inner levels
// — the kind of desync a back-invalidation bug would cause. It reports
// whether a line was found to corrupt.
func (h *Hierarchy) CorruptInclusivity() bool {
	var victim uint64
	found := false
	h.L1.VisitLines(func(line uint64) bool {
		victim = line
		found = true
		return false
	})
	if !found {
		return false
	}
	return h.LLC.Remove(lineAddr(victim, h.LLC.cfg.LineSize))
}
