package prefetcher

import (
	"fmt"
	"testing"

	"afterimage/internal/cache"
)

// TestAuditStrideFieldEdges pins the audit's stride bound to the field
// truncStride actually produces: two's-complement [-max, max). The
// fork-isolation property test originally caught Audit rejecting a
// legitimately learned stride of exactly -max.
func TestAuditStrideFieldEdges(t *testing.T) {
	cfg := DefaultIPStrideConfig()
	if got := truncStride(-cfg.MaxStrideBytes, cfg.MaxStrideBytes); got != -cfg.MaxStrideBytes {
		t.Fatalf("truncStride(-max) = %d, want %d", got, -cfg.MaxStrideBytes)
	}

	p := NewIPStride(cfg)
	p.CorruptStride(0, -cfg.MaxStrideBytes) // representable field edge
	if errs := p.Audit(); len(errs) != 0 {
		t.Fatalf("stride -max flagged as corruption: %v", errs)
	}
	p.CorruptStride(0, cfg.MaxStrideBytes) // +max wraps in hardware, never stored
	if errs := p.Audit(); len(errs) == 0 {
		t.Fatal("stride +max not flagged as corruption")
	}
	p.CorruptStride(0, -cfg.MaxStrideBytes-1)
	if errs := p.Audit(); len(errs) == 0 {
		t.Fatal("stride below -max not flagged as corruption")
	}
}

// trainSome walks three distinct IPs far enough to allocate, confirm and
// fire their entries, leaving a populated table, live Bit-PLRU state and a
// recorded last issue.
func trainSome(p *IPStride) {
	feed(p, 0x400100, 0x10000, 0x10000+7*line, 0x10000+14*line, 0x10000+21*line)
	feed(p, 0x400200, 0x20000, 0x20000+3*line, 0x20000+6*line)
	feed(p, 0x400300, 0x30000, 0x30000+5*line)
}

func TestIPStrideAuditCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *IPStride)
	}{
		{"stride-overflow", func(p *IPStride) { p.CorruptStride(0, p.cfg.MaxStrideBytes+64) }},
		{"confidence-out-of-range", func(p *IPStride) { p.CorruptConfidence(1, p.cfg.MaxConfidence+3) }},
		{"plru-all-ones", func(p *IPStride) {
			if !p.CorruptPLRU() {
				t.Skip("policy not Bit-PLRU")
			}
		}},
		{"cross-frame-issue", func(p *IPStride) { p.CorruptCrossFrame() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newDefault()
			trainSome(p)
			if errs := p.Audit(); len(errs) != 0 {
				t.Fatalf("pre-corruption audit dirty: %v", errs)
			}
			tc.corrupt(p)
			if errs := p.Audit(); len(errs) == 0 {
				t.Fatal("audit missed the corruption")
			}
		})
	}
}

// TestIPStridePolicyWidthBoundary: the history table is a one-set policy
// engine with Entries ways, so it shares the cache's width check: Tree-PLRU
// takes at most 64 entries and every other policy takes any size. NewIPStride
// panics on exactly the configs Validate rejects.
func TestIPStridePolicyWidthBoundary(t *testing.T) {
	cases := []struct {
		pol     cache.PolicyKind
		entries int
		ok      bool
	}{
		{cache.TreePLRU, 64, true},
		{cache.TreePLRU, 65, false},
		{cache.LRU, 65, true},
		{cache.FIFO, 65, true},
		{cache.BitPLRU, 65, true},
		{cache.RandomPolicy, 65, true},
		{cache.PolicyKind(99), 24, false},
		{cache.BitPLRU, 0, false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v/%d", tc.pol, tc.entries), func(t *testing.T) {
			cfg := DefaultIPStrideConfig()
			cfg.Policy, cfg.Entries = tc.pol, tc.entries
			if err := cfg.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			var p *IPStride
			panicked := func() (panicked bool) {
				defer func() { panicked = recover() != nil }()
				p = NewIPStride(cfg)
				return false
			}()
			if panicked == tc.ok {
				t.Fatalf("NewIPStride panicked=%v, want %v", panicked, !tc.ok)
			}
			if p == nil {
				return
			}
			// Overfill the table so the policy picks victims across its
			// full width; the audit must stay clean.
			for ip := uint64(0); ip < uint64(2*tc.entries); ip++ {
				p.OnLoad(acc(0x400000+ip, 0x10000+ip*line))
			}
			if errs := p.Audit(); len(errs) != 0 {
				t.Fatalf("audit: %v", errs)
			}
		})
	}
}
