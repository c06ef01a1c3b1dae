package prefetcher

import (
	"fmt"

	"afterimage/internal/mem"
	"afterimage/internal/statehash"
)

// Audit deep-checks the history table against the structural rules of
// Algorithm 1: confidence within the saturating-counter range, |stride|
// strictly inside the 13-bit field, tags within the IndexBits mask, no two
// valid entries sharing a lookup key, the replacement policy internally
// consistent, and the most recent issued prefetch contained in its trigger's
// physical frame (§4.3). It returns every broken rule.
func (p *IPStride) Audit() []error {
	var errs []error
	for i := range p.entries {
		e := &p.entries[i]
		if !e.Valid {
			continue
		}
		if e.Confidence < 0 || e.Confidence > p.cfg.MaxConfidence {
			errs = append(errs, fmt.Errorf("ipstride: slot %d confidence %d outside [0,%d]", i, e.Confidence, p.cfg.MaxConfidence))
		}
		// truncStride wraps into the two's-complement field [-max, max):
		// exactly -max is representable (the fork-isolation property test
		// caught this edge), only values beyond the field are corruption.
		if e.Stride < -p.cfg.MaxStrideBytes || e.Stride >= p.cfg.MaxStrideBytes {
			errs = append(errs, fmt.Errorf("ipstride: slot %d stride %d outside [-%d,%d)", i, e.Stride, p.cfg.MaxStrideBytes, p.cfg.MaxStrideBytes))
		}
		if e.Tag&^p.mask != 0 {
			errs = append(errs, fmt.Errorf("ipstride: slot %d tag %#x exceeds %d index bits", i, e.Tag, p.cfg.IndexBits))
		}
		for j := i + 1; j < len(p.entries); j++ {
			o := &p.entries[j]
			if !o.Valid || o.Tag != e.Tag {
				continue
			}
			if p.cfg.FullIPTag && o.FullIP != e.FullIP {
				continue
			}
			if p.cfg.PIDTag && o.PID != e.PID {
				continue
			}
			errs = append(errs, fmt.Errorf("ipstride: slots %d and %d share lookup key (tag %#x)", i, j, e.Tag))
		}
	}
	if err := p.policy.Audit(0); err != nil {
		errs = append(errs, fmt.Errorf("ipstride: policy: %w", err))
	}
	if p.lastIssue.valid && p.lastIssue.base.Frame() != p.lastIssue.target.Frame() {
		errs = append(errs, fmt.Errorf("ipstride: issued prefetch %#x crosses frame of trigger %#x", uint64(p.lastIssue.target), uint64(p.lastIssue.base)))
	}
	return errs
}

// CorruptStride overwrites slot i's stride with an out-of-range value, as a
// bit flip in the stride field's sign-extension logic would. An invalid slot
// is fabricated first so the corruption always lands.
func (p *IPStride) CorruptStride(i int, stride int64) {
	i = p.forceValid(i)
	p.entries[i].Stride = stride
}

// CorruptConfidence overwrites slot i's confidence counter with a value the
// 2-bit field cannot hold.
func (p *IPStride) CorruptConfidence(i int, conf int) {
	i = p.forceValid(i)
	p.entries[i].Confidence = conf
}

// CorruptPLRU forces the history table's Bit-PLRU into the forbidden
// all-ones state. It reports false when the table uses another policy.
func (p *IPStride) CorruptPLRU() bool { return p.policy.CorruptBitPLRU(0) }

// CorruptCrossFrame poisons the issued-prefetch record with a target in the
// frame after its trigger — the §4.3 containment violation.
func (p *IPStride) CorruptCrossFrame() {
	base := mem.PAddr(mem.PageSize * 40)
	p.lastIssue.base = base
	p.lastIssue.target = base + mem.PAddr(mem.PageSize)
	p.lastIssue.valid = true
}

// forceValid ensures slot i (mod table size) holds a valid entry, fabricating
// a plausible one when necessary, and returns the slot index.
func (p *IPStride) forceValid(i int) int {
	if len(p.entries) == 0 {
		panic("ipstride: empty table")
	}
	i %= len(p.entries)
	if i < 0 {
		i += len(p.entries)
	}
	if !p.entries[i].Valid {
		ip := uint64(0x400000 + i)
		p.entries[i] = Entry{Tag: p.tagOf(ip), FullIP: ip, LastAddr: mem.PAddr(mem.PageSize * 32), Valid: true}
	}
	return i
}

// StateHash folds the prefetcher's complete state into a stable digest.
func (p *IPStride) StateHash() uint64 {
	h := statehash.New()
	for i := range p.entries {
		e := &p.entries[i]
		h.Bool(e.Valid)
		if e.Valid {
			h.U64(e.Tag).U64(e.FullIP).Int(e.PID).U64(uint64(e.LastAddr)).I64(e.Stride).Int(e.Confidence)
		}
	}
	var words [64]uint64 // the policy words of any table up to 63 entries stay on the stack
	h.U64s(p.policy.SaveInto(words[:0], 0))
	h.Bool(p.lastIssue.valid).U64(uint64(p.lastIssue.base)).U64(uint64(p.lastIssue.target))
	h.U64(p.stats.Lookups).U64(p.stats.Trains).U64(p.stats.Allocs).U64(p.stats.Evictions)
	h.U64(p.stats.Prefetches).U64(p.stats.PageDrops).U64(p.stats.Relearns).U64(p.stats.TLBSkips).U64(p.stats.Flushes)
	return h.Sum()
}

// StateHash folds the full suite state into one digest.
func (s *Suite) StateHash() uint64 {
	h := statehash.New()
	h.Combine(s.IPStride.StateHash())
	h.Bool(s.DCU.Enabled).U64(s.DCU.lastLine).Bool(s.DCU.seen).U64(s.DCU.stats)
	h.Bool(s.DPL.Enabled).U64(s.DPL.lastMiss).Bool(s.DPL.seen).U64(s.DPL.stats)
	h.Bool(s.Streamer.Enabled).Int(s.Streamer.Degree).U64(s.Streamer.stats)
	for _, e := range s.Streamer.table {
		h.Bool(e.valid)
		if e.valid {
			h.U64(e.frame).U64(e.lastLine).Int(e.dir)
		}
	}
	return h.Sum()
}

// Audit deep-checks the suite (only the IP-stride table has structural
// invariants; the noise detectors hold arbitrary stream state).
func (s *Suite) Audit() []error { return s.IPStride.Audit() }
