package prefetcher

import (
	"testing"

	"afterimage/internal/cache"
	"afterimage/internal/mem"
)

func forkTestSuite() *Suite {
	s := &Suite{
		IPStride: NewIPStride(DefaultIPStrideConfig()),
		DCU:      &DCU{Enabled: true},
		DPL:      &DPL{Enabled: true},
		Streamer: NewStreamer(2),
	}
	s.Streamer.Enabled = true
	return s
}

func warmSuite(s *Suite, n int) {
	for i := 0; i < n; i++ {
		s.OnLoad(Access{
			IP:     0x400000 + uint64(i%20)*0x40,
			PA:     mem.PAddr(0x10000 + (i%20)*4096 + (i/20)*192),
			TLBHit: i%9 != 0,
			Level:  cache.LevelDRAM,
		})
	}
}

// TestSuiteForkBitIdentical: a forked suite hashes identically to its
// parent and stays identical under an identical access stream — including
// the issued prefetch requests.
func TestSuiteForkBitIdentical(t *testing.T) {
	s := forkTestSuite()
	warmSuite(s, 500)
	f := s.Fork()
	if f.StateHash() != s.StateHash() {
		t.Fatal("fork hash differs from parent at rest")
	}
	for i := 0; i < 300; i++ {
		a := Access{
			IP:     0x400000 + uint64(i%24)*0x40,
			PA:     mem.PAddr(0x40000 + (i%24)*4096 + i*64),
			TLBHit: i%7 != 0,
			Level:  cache.LevelL2,
		}
		ra := s.OnLoad(a)
		rb := f.OnLoad(a)
		if len(ra) != len(rb) {
			t.Fatalf("access %d: parent issued %d requests, fork %d", i, len(ra), len(rb))
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("access %d request %d: parent %+v, fork %+v", i, j, ra[j], rb[j])
			}
		}
	}
	if f.StateHash() != s.StateHash() {
		t.Fatal("fork diverged from parent under an identical access stream")
	}
}

// TestSuiteForkScratchReset: the fork gets a FRESH request scratch buffer
// sized to the parent's capacity — empty (no stale requests) but
// allocation-free from the first OnLoad, exactly like the warmed parent.
func TestSuiteForkScratchReset(t *testing.T) {
	s := forkTestSuite()
	warmSuite(s, 500) // grows the scratch to its steady-state capacity
	if cap(s.scratch) == 0 {
		t.Fatal("parent scratch never grew (test substrate broken)")
	}
	f := s.Fork()
	if len(f.scratch) != 0 {
		t.Fatalf("fork scratch carries %d stale requests", len(f.scratch))
	}
	if cap(f.scratch) != cap(s.scratch) {
		t.Fatalf("fork scratch capacity %d, parent %d", cap(f.scratch), cap(s.scratch))
	}
	// Sharing the backing array would let the parent's next OnLoad overwrite
	// requests the fork just returned.
	pr := s.OnLoad(Access{IP: 0x400040, PA: 0x51000, TLBHit: true, Level: cache.LevelDRAM})
	fr := f.OnLoad(Access{IP: 0x400040, PA: 0x51000, TLBHit: true, Level: cache.LevelDRAM})
	if len(pr) > 0 && len(fr) > 0 && &pr[0] == &fr[0] {
		t.Fatal("fork shares the parent's scratch backing array")
	}
}

// TestIPStrideForkIndependence: training the fork leaves the parent's
// table, policy and counters untouched, and vice versa.
func TestIPStrideForkIndependence(t *testing.T) {
	s := forkTestSuite()
	warmSuite(s, 200)
	before := s.IPStride.StateHash()
	f := s.Fork()
	for i := 0; i < 400; i++ {
		f.IPStride.OnLoad(Access{
			IP: 0x900000 + uint64(i%24)*0x40, PA: mem.PAddr(0x80000 + i*128),
			TLBHit: true, Level: cache.LevelDRAM,
		})
	}
	f.IPStride.Flush()
	if s.IPStride.StateHash() != before {
		t.Fatal("fork training mutated the parent table")
	}
	fBefore := f.IPStride.StateHash()
	s.IPStride.OnLoad(Access{IP: 0x400000, PA: 0x999000, TLBHit: true, Level: cache.LevelDRAM})
	if f.IPStride.StateHash() != fBefore {
		t.Fatal("parent training mutated the fork table")
	}
}

// TestIPStrideForkPolicyIndependence: allocating twice as many IPs as the
// table holds drives the history-table policy through inserts and victim
// choices, so its state must be the fork's own. The fork's churn leaves the
// parent's hash unchanged, and the parent then evicts exactly as an
// unforked twin does.
func TestIPStrideForkPolicyIndependence(t *testing.T) {
	parent, twin := newDefault(), newDefault()
	trainSome(parent)
	trainSome(twin)
	before := parent.StateHash()
	f := parent.Fork()
	for ip := uint64(0); ip < 48; ip++ {
		f.OnLoad(acc(0x900000+ip, 0x80000+ip*line))
	}
	if parent.StateHash() != before {
		t.Fatal("fork allocations mutated the parent's table or policy")
	}
	for ip := uint64(0); ip < 48; ip++ {
		a := acc(0x700000+ip, 0x60000+ip*line)
		parent.OnLoad(a)
		twin.OnLoad(a)
	}
	if parent.StateHash() != twin.StateHash() {
		t.Fatal("after forking, the parent evicts differently from an unforked twin")
	}
}
