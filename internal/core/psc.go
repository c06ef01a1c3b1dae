package core

import (
	"afterimage/internal/mem"
	"afterimage/internal/sim"
)

// PSC implements Prefetcher Status Checking (§6.1): instead of scanning
// shared memory with cache primitives, the attacker keeps one trained entry
// alive along a private strided chain and, per observation, re-executes the
// trained IP once and times a single destination address. A hit means the
// entry is still triggering (the victim did not execute the matching load);
// a miss means the victim's load re-learned the entry (§6.2).
//
// Following §6.3, every check continues the arithmetic chain
// (current_address + N) so the attacker's own detection loads never reset
// the entry. After a genuine victim disturbance the chain shows the
// characteristic two-miss re-training signature of Figure 15.
type PSC struct {
	// IP is the attacker's trained load IP; its low 8 bits match the
	// victim's target load.
	IP uint64
	// StrideLines is the training stride N in cache lines. It must satisfy
	// 5·N ≤ 64 (N ≤ 12): a page hop re-saturates with three chained loads
	// ending at 3N, and the next check needs room up to 5N within the same
	// 64-line page — otherwise every check would hop-and-retrain before
	// measuring and the status could never be observed.
	StrideLines int64
	// MeasureIP times the destination address (reserved low-8 value).
	MeasureIP uint64

	buf    *mem.Mapping
	cursor mem.VAddr // address of the next trained-IP load
	page   int       // page index of the cursor within buf
}

// NewPSC allocates a locked probe buffer of the given number of pages
// (sequential physical frames, so page hops ride the next-page assist).
func NewPSC(env *sim.Env, ip uint64, strideLines int64, pages int) *PSC {
	if pages < 1 {
		pages = 1
	}
	if strideLines <= 0 || strideLines > 12 {
		panic(&sim.SimFault{
			Kind: sim.FaultAPIMisuse, Cycle: env.Now(),
			Msg: "core: PSC stride must be in 1..12 lines (5 chain steps must fit a page)",
		})
	}
	p := &PSC{
		IP:          ip,
		StrideLines: strideLines,
		MeasureIP:   IPWithLow8(0x71_0000, PSCIPLow8),
		buf:         env.Mmap(uint64(pages)*mem.PageSize, mem.MapLocked),
	}
	p.cursor = p.buf.Base
	env.WarmTLB(p.cursor)
	return p
}

// strideBytes is the chain step in bytes.
func (p *PSC) strideBytes() mem.VAddr { return mem.VAddr(p.StrideLines * LineSize) }

func (p *PSC) pageEnd() mem.VAddr {
	return p.buf.Base + mem.VAddr((p.page+1)*mem.PageSize)
}

// ensureRoom hops to the next page when a trained load plus its prefetch
// target would no longer fit, then re-saturates confidence with three
// chained loads so the hop can never masquerade as a victim disturbance.
// (Evidence arriving exactly during a hop is lost — one contributor to the
// 82 % PSC success rate of §7.3.)
func (p *PSC) ensureRoom(env *sim.Env) {
	s := p.strideBytes()
	if p.cursor+2*s <= p.pageEnd() {
		return
	}
	p.page++
	if p.page >= int(p.buf.Length/mem.PageSize) {
		// Wrap: recycle the buffer after flushing stale lines so future
		// timed targets start uncached.
		p.page = 0
		for off := uint64(0); off < p.buf.Length; off += LineSize {
			env.Flush(p.buf.Base + mem.VAddr(off))
		}
	}
	p.cursor = p.buf.Base + mem.VAddr(p.page*mem.PageSize)
	env.WarmTLB(p.cursor)
	for i := 0; i < 3; i++ {
		env.WarmTLB(p.cursor)
		env.Load(p.IP, p.cursor)
		p.cursor += s
	}
}

// Train saturates the entry's confidence with rounds (≥ 3) chained loads.
// On return the chain always has room for the next Check, so a victim
// disturbance arriving after Train is never masked by a page hop.
func (p *PSC) Train(env *sim.Env, rounds int) {
	if rounds < 3 {
		rounds = 3
	}
	for i := 0; i < rounds; i++ {
		p.ensureRoom(env)
		env.WarmTLB(p.cursor) // the chain is attacker memory; keep it TLB-resident
		env.Load(p.IP, p.cursor)
		p.cursor += p.strideBytes()
	}
	p.ensureRoom(env)
}

// Check performs one §6.3 detection step: a trained-IP load at the chain
// cursor, then one timed load of cursor+N. It reports whether the
// prefetcher triggered (true = entry undisturbed since the last step).
// Room for the next step is secured before returning, so hops only ever
// happen inside the attacker's own turn.
func (p *PSC) Check(env *sim.Env) bool {
	hit, _ := p.CheckLat(env)
	return hit
}

// CheckLat is Check, additionally reporting the raw measured latency so
// callers can score the decision margin (see LatencyConfidence).
func (p *PSC) CheckLat(env *sim.Env) (hit bool, lat uint64) {
	p.ensureRoom(env)
	// Domain switches may have flushed the TLB; re-warm the chain page so
	// the first-touch rule cannot mask the status check (the chain is the
	// attacker's own memory).
	env.WarmTLB(p.cursor)
	env.Load(p.IP, p.cursor)
	target := p.cursor + p.strideBytes()
	lat = env.TimeLoad(p.MeasureIP, target)
	p.cursor = target
	hit = lat < env.HitThreshold()
	p.ensureRoom(env)
	return hit, lat
}

// Observe runs a full train-yield-check round against a victim scheduled
// during the yield: it returns true when the victim executed the targeted
// load (i.e. the prefetcher no longer triggers).
func (p *PSC) Observe(env *sim.Env, rounds int) bool {
	p.Train(env, rounds)
	env.Yield()
	return !p.Check(env)
}
