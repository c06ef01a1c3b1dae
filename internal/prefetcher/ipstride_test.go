package prefetcher

import (
	"testing"
	"testing/quick"

	"afterimage/internal/cache"
	"afterimage/internal/mem"
)

const line = mem.LineSize

// acc builds a TLB-hitting user access.
func acc(ip uint64, pa uint64) Access {
	return Access{IP: ip, PA: mem.PAddr(pa), PID: 1, TLBHit: true, Level: cache.LevelDRAM}
}

// feed pushes a sequence of (ip, pa) pairs and returns the requests of the
// last access.
func feed(p *IPStride, ip uint64, pas ...uint64) []Request {
	var last []Request
	for _, pa := range pas {
		last = p.OnLoad(acc(ip, pa))
	}
	return last
}

func newDefault() *IPStride { return NewIPStride(DefaultIPStrideConfig()) }

func TestThirdAccessIssuesFirstPrefetch(t *testing.T) {
	p := newDefault()
	base := uint64(0x10000)
	if got := feed(p, 0x1234, base); got != nil {
		t.Fatalf("first access prefetched: %v", got)
	}
	if got := feed(p, 0x1234, base+7*line); got != nil {
		t.Fatalf("second access prefetched: %v", got)
	}
	got := feed(p, 0x1234, base+14*line)
	if len(got) != 1 {
		t.Fatalf("third access: want 1 prefetch, got %v", got)
	}
	if want := mem.PAddr(base + 21*line); got[0].Target != want {
		t.Fatalf("prefetch target = %#x, want %#x", uint64(got[0].Target), uint64(want))
	}
}

func TestConfidenceSaturatesAtThree(t *testing.T) {
	p := newDefault()
	base := uint64(0x10000)
	for i := uint64(0); i < 8; i++ {
		feed(p, 0x42, base+i*7*line)
	}
	e, ok := p.Peek(0x42, 1)
	if !ok {
		t.Fatal("entry missing")
	}
	if e.Confidence != 3 {
		t.Fatalf("confidence = %d, want saturated 3", e.Confidence)
	}
	if e.Stride != 7*line {
		t.Fatalf("stride = %d, want %d", e.Stride, 7*line)
	}
}

// TestFig7aTwoPhaseTraining reproduces Figure 7a / Listing 3: phase 1 with
// stride 7, a jump, then phase 2 with stride 5. The jump access still fires
// the stride-7 prefetch (the "key component"); the next access is silent;
// the one after re-triggers with stride 5.
func TestFig7aTwoPhaseTraining(t *testing.T) {
	p := newDefault()
	ip := uint64(0xA1)
	// Phase 1: saturate with stride 7 lines.
	for i := uint64(0); i < 4; i++ {
		feed(p, ip, 0x20000+i*7*line)
	}
	// First iteration of the second loop: arbitrary offset.
	off := uint64(0x20000 + 40*line)
	got := feed(p, ip, off)
	if len(got) != 1 || got[0].Target != mem.PAddr(off+7*line) {
		t.Fatalf("offset access: want stride-7 prefetch at %#x, got %v", off+7*line, got)
	}
	// Second iteration: stride 5 — neither stride triggers.
	if got := feed(p, ip, off+5*line); got != nil {
		t.Fatalf("second iteration unexpectedly prefetched: %v", got)
	}
	// Third iteration: stride 5 becomes active.
	got = feed(p, ip, off+10*line)
	if len(got) != 1 || got[0].Target != mem.PAddr(off+15*line) {
		t.Fatalf("third iteration: want stride-5 prefetch at %#x, got %v", off+15*line, got)
	}
}

// TestFig7bImmediateSecondPhase reproduces Figure 7b: when phase 2 starts
// exactly one new-stride step after phase 1, the second phase-2 access
// already triggers.
func TestFig7bImmediateSecondPhase(t *testing.T) {
	p := newDefault()
	ip := uint64(0xA2)
	last := uint64(0x30000)
	for i := uint64(0); i < 4; i++ {
		last = 0x30000 + i*7*line
		feed(p, ip, last)
	}
	// Phase 2 starts immediately: first access at last+5 fires stride 7...
	got := feed(p, ip, last+5*line)
	if len(got) != 1 || got[0].Target != mem.PAddr(last+5*line+7*line) {
		t.Fatalf("first phase-2 access: want stride-7 prefetch, got %v", got)
	}
	// ...and the second phase-2 access is already fully trained on 5.
	got = feed(p, ip, last+10*line)
	if len(got) != 1 || got[0].Target != mem.PAddr(last+15*line) {
		t.Fatalf("second phase-2 access: want stride-5 prefetch at %#x, got %v",
			last+15*line, got)
	}
}

// TestIndexLow8NoTag reproduces §4.1 / Figure 6: an IP matching the trained
// one in its low 8 bits hits the same entry; any low-8 mismatch does not.
func TestIndexLow8NoTag(t *testing.T) {
	p := newDefault()
	trained := uint64(0x7f_1234_5678)
	for i := uint64(0); i < 4; i++ {
		feed(p, trained, 0x40000+i*9*line)
	}
	alias := uint64(0x11_0000_0078) // same low 8 bits only
	got := feed(p, alias, 0x40000)
	if len(got) != 1 {
		t.Fatalf("8-bit alias did not trigger: %v", got)
	}
	other := trained ^ 0x01 // differs in bit 0
	if got := feed(p, other, 0x40000+line); got != nil {
		t.Fatalf("non-aliasing IP triggered: %v", got)
	}
}

// trainIPs trains n distinct-low-8 IPs, each on its own frame, and returns
// the IPs and their training bases.
func trainIPs(p *IPStride, n int, rounds int) ([]uint64, []uint64) {
	ips := make([]uint64, n)
	bases := make([]uint64, n)
	for i := 0; i < n; i++ {
		ips[i] = 0x9000_0000 + uint64(i) // distinct low-8 for i < 256
		bases[i] = uint64(0x100000 + i*mem.PageSize)
		for r := uint64(0); r < uint64(rounds); r++ {
			p.OnLoad(acc(ips[i], bases[i]+r*7*line))
		}
	}
	return ips, bases
}

// triggerPoint reports whether the i-th trained IP still fires a prefetch
// when re-accessed at a fresh offset on its own page. Each point uses a
// fresh machine and a full re-run of the training schedule, exactly like
// the per-point runs behind Figure 8 (measuring an evicted IP would itself
// allocate an entry and perturb later points otherwise).
func triggerPoint(t *testing.T, schedule func(p *IPStride) (ips, bases []uint64), i int) bool {
	t.Helper()
	p := newDefault()
	ips, bases := schedule(p)
	reqs := p.OnLoad(acc(ips[i], bases[i]+45*line))
	return len(reqs) > 0
}

// TestFig8aEntryCount reproduces Figure 8a: with 26 trained IPs the first
// 2 no longer trigger; with 30, the first 6 — i.e. the table has 24 entries.
func TestFig8aEntryCount(t *testing.T) {
	for _, tc := range []struct{ n, evicted int }{{26, 2}, {30, 6}} {
		schedule := func(p *IPStride) ([]uint64, []uint64) { return trainIPs(p, tc.n, 5) }
		for i := 0; i < tc.n; i++ {
			got := triggerPoint(t, schedule, i)
			want := i >= tc.evicted
			if got != want {
				t.Fatalf("n=%d: IP %d triggered=%v, want %v", tc.n, i, got, want)
			}
		}
	}
}

// TestFig8bBitPLRUReplacement reproduces Figure 8b: fill the 24 entries,
// re-touch IPs 1–8, then train 8 new IPs — the evicted entries are 9–16.
func TestFig8bBitPLRUReplacement(t *testing.T) {
	schedule := func(p *IPStride) ([]uint64, []uint64) {
		ips, bases := trainIPs(p, 24, 5)
		// Re-train the first 8 to make them most-recently used.
		for i := 0; i < 8; i++ {
			for r := uint64(0); r < 5; r++ {
				p.OnLoad(acc(ips[i], bases[i]+r*7*line+5*line))
			}
		}
		// Train 8 new IPs on fresh frames.
		for i := 0; i < 8; i++ {
			ip := 0x9000_0000 + uint64(24+i)
			base := uint64(0x100000 + (24+i)*mem.PageSize)
			for r := uint64(0); r < 5; r++ {
				p.OnLoad(acc(ip, base+r*7*line))
			}
		}
		return ips, bases
	}
	for i := 0; i < 24; i++ {
		got := triggerPoint(t, schedule, i)
		want := i < 8 || i >= 16 // positions 9..16 (1-indexed) evicted
		if got != want {
			t.Fatalf("IP %d (1-indexed %d): triggered=%v, want %v", i, i+1, got, want)
		}
	}
}

func TestPrefetchDroppedAtPageBoundary(t *testing.T) {
	p := newDefault()
	ip := uint64(0xB0)
	// Train with stride 13 lines near the end of a page: the trigger whose
	// target crosses the 4 KiB frame must be dropped.
	base := uint64(0x50000)
	feed(p, ip, base+20*line, base+33*line, base+46*line) // 46+13=59 in page: fires
	before := p.stats.PageDrops
	got := feed(p, ip, base+59*line) // target 72 crosses the frame
	if got != nil {
		t.Fatalf("cross-page prefetch not dropped: %v", got)
	}
	if p.stats.PageDrops != before+1 {
		t.Fatalf("PageDrops = %d, want %d", p.stats.PageDrops, before+1)
	}
}

func TestTLBMissSkipsPrefetcher(t *testing.T) {
	p := newDefault()
	ip := uint64(0xB1)
	feed(p, ip, 0x60000, 0x60000+7*line, 0x60000+14*line)
	a := acc(ip, 0x90000) // far frame
	a.TLBHit = false
	if got := p.OnLoad(a); got != nil {
		t.Fatalf("TLB-missing access prefetched: %v", got)
	}
	e, _ := p.Peek(ip, 1)
	if e.LastAddr != mem.PAddr(0x60000+14*line) {
		t.Fatalf("TLB-missing access mutated entry: last=%#x", uint64(e.LastAddr))
	}
	if p.stats.TLBSkips != 1 {
		t.Fatalf("TLBSkips = %d, want 1", p.stats.TLBSkips)
	}
}

// TestNextPageAssist reproduces Table 1 row "1 Page"/locked: a TLB-missing
// first access whose frame is exactly the successor of the trained frame
// still triggers.
func TestNextPageAssist(t *testing.T) {
	p := newDefault()
	ip := uint64(0xB2)
	base := uint64(0x70000) // frame 0x70
	feed(p, ip, base, base+7*line, base+14*line)
	a := acc(ip, base+mem.PageSize+3*line) // next frame, first touch
	a.TLBHit = false
	got := p.OnLoad(a)
	if len(got) != 1 || got[0].Target != mem.PAddr(base+mem.PageSize+10*line) {
		t.Fatalf("next-page assist: want prefetch at +10 lines, got %v", got)
	}
	// A non-adjacent frame must stay suppressed.
	p2 := newDefault()
	feed(p2, ip, base, base+7*line, base+14*line)
	a2 := acc(ip, base+3*mem.PageSize)
	a2.TLBHit = false
	if got := p2.OnLoad(a2); got != nil {
		t.Fatalf("non-adjacent TLB-missing access triggered: %v", got)
	}
}

func TestVictimCrossFrameAccessFiresThenRelearns(t *testing.T) {
	p := newDefault()
	ip := uint64(0x34) // victim shares these low 8 bits
	attacker := uint64(0x7000_0034)
	base := uint64(0x80000)
	feed(p, attacker, base, base+11*line, base+22*line, base+33*line)
	// Victim load, different process, different frame, TLB warm.
	victimPA := uint64(0x555000 + 9*line)
	got := p.OnLoad(Access{IP: 0xffffffff81000034, PA: mem.PAddr(victimPA), PID: 2, TLBHit: true})
	if len(got) != 1 || got[0].Target != mem.PAddr(victimPA+11*line) {
		t.Fatalf("victim access: want stride echo at %#x, got %v", victimPA+11*line, got)
	}
	e, ok := p.Peek(ip, 1)
	if !ok {
		t.Fatal("entry vanished")
	}
	if e.Confidence != 1 {
		t.Fatalf("confidence after victim access = %d, want re-learned 1", e.Confidence)
	}
}

func TestStrideFieldTruncation(t *testing.T) {
	if got := truncStride(2048, 2048); got != -2048 {
		t.Fatalf("truncStride(2048) = %d, want -2048 (field wrap)", got)
	}
	if got := truncStride(-5000, 2048); got != truncStride(-5000+4096, 2048) {
		t.Fatalf("truncation not congruent mod 4096")
	}
	if got := truncStride(100, 2048); got != 100 {
		t.Fatalf("in-range stride altered: %d", got)
	}
	if got := truncStride(-2048, 2048); got != -2048 {
		t.Fatalf("truncStride(-2048) = %d, want -2048", got)
	}
}

func TestFullIPTagMitigationBlocksAliasing(t *testing.T) {
	cfg := DefaultIPStrideConfig()
	cfg.FullIPTag = true
	p := NewIPStride(cfg)
	trained := uint64(0x7f_0000_0078)
	feed(p, trained, 0x40000, 0x40000+9*line, 0x40000+18*line)
	alias := uint64(0x11_0000_0078)
	if got := feed(p, alias, 0x40000+27*line); got != nil {
		t.Fatalf("full-IP tag failed to block alias: %v", got)
	}
}

func TestPIDTagMitigationBlocksCrossProcess(t *testing.T) {
	cfg := DefaultIPStrideConfig()
	cfg.PIDTag = true
	p := NewIPStride(cfg)
	for i := uint64(0); i < 3; i++ {
		p.OnLoad(acc(0x78, 0x40000+i*9*line))
	}
	a := Access{IP: 0x78, PA: mem.PAddr(0x40000 + 27*line), PID: 99, TLBHit: true}
	if got := p.OnLoad(a); got != nil {
		t.Fatalf("PID tag failed to block cross-process trigger: %v", got)
	}
}

func TestFlushClearsEverything(t *testing.T) {
	p := newDefault()
	trainIPs(p, 10, 4)
	p.Flush()
	for _, e := range p.Entries() {
		if e.Valid {
			t.Fatal("entry survived Flush")
		}
	}
	if p.stats.Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1", p.stats.Flushes)
	}
}

func TestInvalidate(t *testing.T) {
	p := newDefault()
	feed(p, 0x11, 0x40000, 0x40000+7*line)
	if !p.Invalidate(0x11, 1) {
		t.Fatal("Invalidate missed existing entry")
	}
	if _, ok := p.Peek(0x11, 1); ok {
		t.Fatal("entry still visible after Invalidate")
	}
	if p.Invalidate(0x11, 1) {
		t.Fatal("Invalidate reported success on missing entry")
	}
}

// TestInvariantsQuick property-tests Algorithm 1: confidence stays within
// the 2-bit range, the stride stays within the 13-bit field, and the entry
// count never exceeds the table size.
func TestInvariantsQuick(t *testing.T) {
	f := func(ips []uint8, offsets []uint16) bool {
		p := newDefault()
		n := len(ips)
		if len(offsets) < n {
			n = len(offsets)
		}
		for i := 0; i < n; i++ {
			pa := uint64(0x100000) + uint64(offsets[i])*8
			p.OnLoad(acc(uint64(ips[i]), pa))
		}
		valid := 0
		for _, e := range p.Entries() {
			if !e.Valid {
				continue
			}
			valid++
			if e.Confidence < 0 || e.Confidence > 3 {
				return false
			}
			if e.Stride > 2048 || e.Stride < -2048 {
				return false
			}
		}
		return valid <= p.Config().Entries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSameAddressRepetition pins the corner case of a repeated identical
// address: stride 0 never issues a prefetch.
func TestSameAddressRepetition(t *testing.T) {
	p := newDefault()
	for i := 0; i < 6; i++ {
		if got := feed(p, 0x22, 0x40040); got != nil {
			t.Fatalf("zero-stride prefetch issued: %v", got)
		}
	}
}

func TestNegativeStride(t *testing.T) {
	p := newDefault()
	base := uint64(0x51000)
	feed(p, 0x23, base+40*line, base+33*line) // stride -7 lines
	got := feed(p, 0x23, base+26*line)
	if len(got) != 1 || got[0].Target != mem.PAddr(base+19*line) {
		t.Fatalf("negative stride: want prefetch at %#x, got %v", base+19*line, got)
	}
}

// TestByteGranularStride pins footnote 5 / §4.2: the stride field is byte-
// granular (it "does not need to align to a cache line"), so a 100-byte
// stride trains and prefetches exactly.
func TestByteGranularStride(t *testing.T) {
	p := newDefault()
	base := uint64(0x90000)
	feed(p, 0x61, base, base+100, base+200)
	got := feed(p, 0x61, base+300)
	if len(got) != 1 || got[0].Target != mem.PAddr(base+400) {
		t.Fatalf("byte stride: %v", got)
	}
	e, _ := p.Peek(0x61, 1)
	if e.Stride != 100 {
		t.Fatalf("stride = %d, want 100 bytes", e.Stride)
	}
}

// TestLineGranularObservationLosesLowBits demonstrates the footnote's
// limit: a receiver reloading at cache-line granularity sees two byte-
// strides that share their upper bits as the same signal — the low 6 bits
// of a 12-bit stride payload are unobservable.
func TestLineGranularObservationLosesLowBits(t *testing.T) {
	lineOf := func(stride int64) uint64 {
		p := newDefault()
		base := uint64(0xA0000)
		for i := int64(0); i < 3; i++ {
			feed(p, 0x62, uint64(int64(base)+i*stride))
		}
		reqs := feed(p, 0x62, uint64(int64(base)+3*stride))
		if len(reqs) != 1 {
			t.Fatalf("stride %d did not trigger", stride)
		}
		return reqs[0].Target.Line()
	}
	// Strides 7·64 and 7·64+5 differ only below line granularity.
	if lineOf(7*64) != lineOf(7*64+5) {
		t.Fatal("sub-line stride bits observable at line granularity")
	}
	if lineOf(7*64) == lineOf(8*64) {
		t.Fatal("full-line stride bits lost")
	}
}
