// Package prefetcher implements the hardware prefetchers of a Haswell /
// Coffee Lake–class Intel core as reverse-engineered by the AfterImage paper:
// the IP-stride prefetcher (the attack surface, §4), and the DCU next-line,
// DPL adjacent-line and streamer prefetchers (noise sources, §3.2/§7.1),
// plus the Haswell next-page assist observed in §4.3.
//
// The IP-stride prefetcher follows the paper's Algorithm 1 exactly:
//
//   - 24 fully-associative entries replaced with Bit-PLRU (§4.4, §4.5),
//   - indexed by the least-significant 8 bits of the load IP, with no
//     further tag (§4.1),
//   - a 2-bit confidence counter with prefetch threshold 2 (§4.2),
//   - a 13-bit signed byte stride, |stride| < 2 KiB (§4.2),
//   - once confidence ≥ 2, every access fires a prefetch of
//     current+stride before the stride check — the "key component" that
//     lets a victim trigger an attacker-trained entry (§4.2, Figure 7),
//   - physical page-frame boundary checking with a next-page exception and
//     a TLB first-touch rule (§4.3).
package prefetcher

import (
	"fmt"

	"afterimage/internal/cache"
	"afterimage/internal/mem"
	"afterimage/internal/telemetry"
)

// Access describes one demand load as seen by the prefetchers.
type Access struct {
	IP     uint64    // instruction pointer of the load
	PA     mem.PAddr // physical address requested
	PID    int       // process/context ID (only used by tagging mitigations)
	TLBHit bool      // whether the page translation hit the dTLB
	Level  cache.Level
}

// Request is one prefetch the hardware wants to issue.
type Request struct {
	Target mem.PAddr
	Source string // originating prefetcher, e.g. "ip-stride"
}

// IPStrideConfig parameterises the IP-stride prefetcher. The zero value is
// not valid; use DefaultIPStrideConfig.
type IPStrideConfig struct {
	Entries          int   // history table size (24 on CFL/HSW, §4.4)
	IndexBits        int   // low IP bits forming the tag (8, §4.1)
	MaxConfidence    int   // saturating counter ceiling (3 = 2 bits, §4.2)
	TriggerThreshold int   // confidence needed to prefetch (2, §4.2)
	MaxStrideBytes   int64 // |stride| strictly below this (2048, §4.2)
	Policy           cache.PolicyKind

	// Mitigation knobs (§8.2): FullIPTag verifies the entire IP; PIDTag adds
	// a process-ID tag. Both break cross-context sharing when enabled.
	FullIPTag bool
	PIDTag    bool
}

// DefaultIPStrideConfig is the Coffee Lake / Haswell configuration the paper
// reverse-engineered.
func DefaultIPStrideConfig() IPStrideConfig {
	return IPStrideConfig{
		Entries:          24,
		IndexBits:        8,
		MaxConfidence:    3,
		TriggerThreshold: 2,
		MaxStrideBytes:   2048,
		Policy:           cache.BitPLRU,
	}
}

// Entry is one history-table row (Figure 5: IP tag, Last Addr, Stride,
// Confidence — extended with the physical frame used for §4.3 checks).
type Entry struct {
	Tag        uint64 // low IndexBits of the IP (plus full IP / PID when tagged)
	FullIP     uint64
	PID        int
	LastAddr   mem.PAddr
	Stride     int64
	Confidence int
	Valid      bool
}

// IPStride is the IP-stride prefetcher.
type IPStride struct {
	cfg     IPStrideConfig
	entries []Entry
	policy  *cache.PolicyArray // one set of Entries ways
	mask    uint64

	// NextPage enables the Haswell next-page assist: an access whose frame
	// is exactly the successor of the entry's last frame keeps the entry
	// alive and may trigger immediately (§4.3, Table 1 row 1).
	NextPage bool

	// lastIssue records the most recent prefetch decision so the auditor can
	// re-check §4.3 target containment after the fact: an issued target must
	// share its trigger's physical frame.
	lastIssue struct {
		base   mem.PAddr
		target mem.PAddr
		valid  bool
	}

	stats Stats
	tel   *telemetry.Hub // nil unless SetTelemetry; emits are trace-guarded
}

// Stats counts prefetcher activity.
type Stats struct {
	Lookups    uint64
	Trains     uint64 // updates of an existing history entry
	Allocs     uint64
	Evictions  uint64
	Prefetches uint64
	PageDrops  uint64 // prefetches dropped at a page boundary
	Relearns   uint64 // entries reset by non-sequential frame crossings
	TLBSkips   uint64 // accesses ignored due to the first-touch rule
	Flushes    uint64 // clear-ip-prefetcher invocations
}

// Validate reports whether the configuration describes a buildable
// prefetcher; NewIPStride panics on exactly the configs Validate rejects.
func (c IPStrideConfig) Validate() error {
	if c.Entries <= 0 || c.IndexBits <= 0 || c.IndexBits > 64 {
		return fmt.Errorf("prefetcher: invalid config %+v", c)
	}
	if err := c.Policy.CheckWays(c.Entries); err != nil {
		return fmt.Errorf("prefetcher: history table: %w", err)
	}
	return nil
}

// NewIPStride builds the prefetcher.
func NewIPStride(cfg IPStrideConfig) *IPStride {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &IPStride{
		cfg:      cfg,
		entries:  make([]Entry, cfg.Entries),
		policy:   cache.NewPolicyArray(cfg.Policy, 1, cfg.Entries, func(int) int64 { return 1 }),
		mask:     (1 << uint(cfg.IndexBits)) - 1,
		NextPage: true,
	}
}

// Config returns the active configuration.
func (p *IPStride) Config() IPStrideConfig { return p.cfg }

// PrefetchCount returns the issued-prefetch counter — the per-step
// accounting in hot simulation loops reads this twice per record.
func (p *IPStride) PrefetchCount() uint64 { return p.stats.Prefetches }

// SetTelemetry attaches the machine's hub so table mutations and issued
// prefetches are traced. All emits are guarded by TraceEnabled, so a nil or
// trace-disabled hub costs two compares per guarded site.
func (p *IPStride) SetTelemetry(h *telemetry.Hub) { p.tel = h }

// RegisterMetrics exposes the activity counters in reg under prefix
// (e.g. "prefetcher.ipstride"): .lookups, .trains, .allocs, .evictions,
// .prefetches, .page_drops, .tlb_skips, .flushes. Samplers read the live
// counters, so the registry is the one read path for them.
func (p *IPStride) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.RegisterFunc(prefix+".lookups", func() uint64 { return p.stats.Lookups })
	reg.RegisterFunc(prefix+".trains", func() uint64 { return p.stats.Trains })
	reg.RegisterFunc(prefix+".allocs", func() uint64 { return p.stats.Allocs })
	reg.RegisterFunc(prefix+".evictions", func() uint64 { return p.stats.Evictions })
	reg.RegisterFunc(prefix+".prefetches", func() uint64 { return p.stats.Prefetches })
	reg.RegisterFunc(prefix+".page_drops", func() uint64 { return p.stats.PageDrops })
	reg.RegisterFunc(prefix+".tlb_skips", func() uint64 { return p.stats.TLBSkips })
	reg.RegisterFunc(prefix+".flushes", func() uint64 { return p.stats.Flushes })
}

// tagOf derives the lookup tag for an access.
func (p *IPStride) tagOf(ip uint64) uint64 { return ip & p.mask }

func (p *IPStride) match(e *Entry, ip uint64, pid int) bool {
	if !e.Valid || e.Tag != p.tagOf(ip) {
		return false
	}
	if p.cfg.FullIPTag && e.FullIP != ip {
		return false
	}
	if p.cfg.PIDTag && e.PID != pid {
		return false
	}
	return true
}

// lookup finds the entry index for the access, or -1.
func (p *IPStride) lookup(ip uint64, pid int) int {
	for i := range p.entries {
		if p.match(&p.entries[i], ip, pid) {
			return i
		}
	}
	return -1
}

// Peek exposes the entry that would serve the given IP (for tests and the
// reverse-engineering harness); ok is false when none matches.
func (p *IPStride) Peek(ip uint64, pid int) (Entry, bool) {
	if i := p.lookup(ip, pid); i >= 0 {
		return p.entries[i], true
	}
	return Entry{}, false
}

// Entries returns a snapshot of the history table in physical slot order.
func (p *IPStride) Entries() []Entry { return append([]Entry(nil), p.entries...) }

// Flush clears the whole history table — the paper's proposed privileged
// clear-ip-prefetcher mitigation instruction (§8.3).
func (p *IPStride) Flush() {
	for i := range p.entries {
		p.entries[i] = Entry{}
	}
	p.stats.Flushes++
	if p.tel.TraceEnabled() {
		p.tel.Emit(telemetry.Event{Kind: telemetry.EvPTFlush})
	}
}

// EvictSlot invalidates the history entry in physical slot i — a targeted
// single-entry eviction, as a contending context's allocations (or a
// fault-injection event) would cause. It reports whether a valid entry was
// dropped.
func (p *IPStride) EvictSlot(i int) bool {
	if i < 0 || i >= len(p.entries) || !p.entries[i].Valid {
		return false
	}
	if p.tel.TraceEnabled() {
		p.tel.Emit(telemetry.Event{Kind: telemetry.EvPTEvict, Arg1: uint64(i), Arg2: p.entries[i].Tag})
	}
	p.entries[i] = Entry{}
	p.stats.Evictions++
	return true
}

// Invalidate drops the entry matching the access context, if any.
func (p *IPStride) Invalidate(ip uint64, pid int) bool {
	if i := p.lookup(ip, pid); i >= 0 {
		p.entries[i] = Entry{}
		return true
	}
	return false
}

// samePage reports whether two physical addresses share a 4 KiB frame.
func samePage(a, b mem.PAddr) bool { return a.Frame() == b.Frame() }

// truncStride wraps a raw distance into the signed stride field, whose
// representable range is (-max, max) with max = 2 KiB (§4.2, footnote 5).
// Hardware stores only those bits, so larger jumps alias; the accompanying
// confidence reset makes the aliased value harmless.
func truncStride(d, max int64) int64 {
	span := 2 * max
	d %= span
	if d >= max {
		d -= span
	} else if d < -max {
		d += span
	}
	return d
}

// OnLoad feeds one demand load through Algorithm 1 and returns the prefetch
// requests to issue (at most one for the IP-stride prefetcher).
//
// Two §4.3 page rules wrap the algorithm:
//
//   - First-touch rule: a TLB-missing access spends itself installing the
//     translation and does not touch the prefetcher — with one exception:
//     when the new physical frame immediately follows the entry's last
//     frame, the Haswell next-page assist keeps the entry live and can
//     trigger on that very first access (Table 1, row "1 Page"/locked).
//   - Target containment: an issued prefetch never crosses the current
//     4 KiB frame (see issue).
//
// Within Algorithm 1, a cross-frame demand access with saturated confidence
// still fires the prefetch of current+stride first (the paper's "key
// component" — this is what lets a victim in a different page, process or
// privilege domain trigger an attacker-trained entry), and then the stride
// mismatch re-learns stride and confidence, which is §4.3's "invalidate the
// entry and re-learn" as observed from software.
func (p *IPStride) OnLoad(a Access) []Request {
	return p.AppendOnLoad(a, nil)
}

// AppendOnLoad is OnLoad in append style: the whole table update — lookup,
// first-touch gate, train-or-allocate, trigger — runs as one straight-line
// function and any issued request is appended to reqs, so a caller reusing
// its buffer pays zero allocations in steady state.
func (p *IPStride) AppendOnLoad(a Access, reqs []Request) []Request {
	p.stats.Lookups++

	idx := p.lookup(a.IP, a.PID)
	if !a.TLBHit {
		assisted := false
		if idx >= 0 && p.NextPage {
			e := &p.entries[idx]
			if a.PA.Frame() == e.LastAddr.Frame()+1 && e.Confidence >= p.cfg.TriggerThreshold {
				assisted = true // next-page assist: proceed as a normal activation
			}
		}
		if !assisted {
			p.stats.TLBSkips++
			return reqs
		}
	}

	if idx < 0 {
		p.allocate(a)
		return reqs
	}
	e := &p.entries[idx]
	p.policy.Touch(0, idx)
	p.stats.Trains++

	distance := int64(a.PA) - int64(e.LastAddr)
	prevConf := e.Confidence

	if e.Confidence >= p.cfg.TriggerThreshold {
		// Key component (§4.2): with saturated confidence the prefetch of
		// current+stride fires unconditionally, before any stride check.
		reqs = p.issue(a.PA, e.Stride, reqs)
		if distance != e.Stride {
			e.Stride = p.learn(distance)
			e.Confidence = 1
		} else if e.Confidence < p.cfg.MaxConfidence {
			e.Confidence++
		}
	} else {
		if distance != e.Stride {
			e.Stride = p.learn(distance)
			e.Confidence = 1
		} else {
			e.Confidence++
			if e.Confidence == p.cfg.TriggerThreshold {
				reqs = p.issue(a.PA, e.Stride, reqs)
			}
		}
	}
	if e.Confidence != prevConf && p.tel.TraceEnabled() {
		p.tel.Emit(telemetry.Event{Kind: telemetry.EvPTConfidence, Arg1: uint64(idx), Arg2: uint64(e.Confidence)})
	}
	e.LastAddr = a.PA
	return reqs
}

// learn stores a new stride, truncated to the hardware stride field.
func (p *IPStride) learn(distance int64) int64 {
	return truncStride(distance, p.cfg.MaxStrideBytes)
}

// issue emits the prefetch of base+stride unless it would cross the current
// physical page frame (§4.3) or the stride is zero.
func (p *IPStride) issue(base mem.PAddr, stride int64, reqs []Request) []Request {
	if stride == 0 {
		return reqs
	}
	target := mem.PAddr(int64(base) + stride)
	if !samePage(base, target) {
		p.stats.PageDrops++
		if p.tel.TraceEnabled() {
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvPrefetchDrop, Arg1: uint64(base), Label: "ip-stride"})
		}
		return reqs
	}
	p.stats.Prefetches++
	p.lastIssue.base, p.lastIssue.target, p.lastIssue.valid = base, target, true
	if p.tel.TraceEnabled() {
		p.tel.Emit(telemetry.Event{Kind: telemetry.EvPrefetchIssue, Arg1: uint64(target), Label: "ip-stride"})
	}
	return append(reqs, Request{Target: target, Source: "ip-stride"})
}

// allocate creates a fresh entry for the access (Algorithm 1 line 24:
// confidence 0, stride 0).
func (p *IPStride) allocate(a Access) {
	slot := -1
	for i := range p.entries {
		if !p.entries[i].Valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = p.policy.Victim(0)
		p.stats.Evictions++
		if p.tel.TraceEnabled() {
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvPTEvict, Arg1: uint64(slot), Arg2: p.entries[slot].Tag})
		}
	}
	p.entries[slot] = Entry{
		Tag:      p.tagOf(a.IP),
		FullIP:   a.IP,
		PID:      a.PID,
		LastAddr: a.PA,
		Valid:    true,
	}
	p.policy.Insert(0, slot)
	p.stats.Allocs++
	if p.tel.TraceEnabled() {
		p.tel.Emit(telemetry.Event{Kind: telemetry.EvPTInsert, Arg1: uint64(slot), Arg2: p.entries[slot].Tag})
	}
}
