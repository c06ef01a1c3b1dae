package tlb

import (
	"testing"

	"afterimage/internal/mem"
)

// Boundary tests for the TLB's one-entry translation predictor: predictions
// must never survive a context switch (different ASID), a flush or
// deliberately corrupted duplicate state, and the VPN extremes must
// behave like any other page.
func TestTLBPredictorBoundaries(t *testing.T) {
	const va = mem.VAddr(0x5555_0000_0000)

	cases := []struct {
		name string
		run  func(t *testing.T, tl *TLB)
	}{
		{"context switch misses on the other asid", func(t *testing.T, tl *TLB) {
			tl.Lookup(1, va) // walk + install
			if hit, _ := tl.Lookup(1, va); !hit {
				t.Fatal("second lookup missed")
			}
			// Same VPN, different address space: the predictor's cached slot
			// holds ASID 1 and must not leak across the switch.
			if hit, _ := tl.Lookup(2, va); hit {
				t.Fatal("asid 2 hit asid 1's translation")
			}
			if hit, _ := tl.Lookup(1, va); !hit {
				t.Fatal("asid 1 lost its translation after the switch")
			}
		}},
		{"flush kills the prediction", func(t *testing.T, tl *TLB) {
			tl.Lookup(1, va)
			if hit, _ := tl.Lookup(1, va); !hit {
				t.Fatal("warm lookup missed")
			}
			tl.FlushAll()
			if tl.predOK {
				t.Fatal("predictor survived FlushAll")
			}
			if hit, _ := tl.Lookup(1, va); hit {
				t.Fatal("hit after FlushAll")
			}
		}},
		{"corrupt insert resets the predictor", func(t *testing.T, tl *TLB) {
			tl.Lookup(1, va)
			tl.Lookup(1, va) // predictor now points at va's way
			// CorruptInsert can duplicate the translation within the set; the
			// predictor must be dropped so lookups keep first-way semantics.
			tl.CorruptInsert(1, va.PageNumber())
			if tl.predOK {
				t.Fatal("predictor survived CorruptInsert")
			}
			if hit, _ := tl.Lookup(1, va); !hit {
				t.Fatal("translation lost after CorruptInsert")
			}
		}},
		{"vpn zero", func(t *testing.T, tl *TLB) {
			if hit, _ := tl.Lookup(1, 0); hit {
				t.Fatal("cold hit at vpn 0")
			}
			if hit, _ := tl.Lookup(1, mem.VAddr(mem.PageSize-1)); !hit {
				t.Fatal("same-page offset missed at vpn 0")
			}
		}},
		{"top of address space", func(t *testing.T, tl *TLB) {
			top := mem.VAddr(^uint64(0) &^ (mem.PageSize - 1))
			tl.Lookup(7, top)
			if hit, _ := tl.Lookup(7, top+mem.VAddr(mem.PageSize-1)); !hit {
				t.Fatal("top-page translation missed")
			}
			// The page below must be distinct despite sharing the set region.
			if hit, _ := tl.Lookup(7, top-mem.VAddr(mem.PageSize)); hit {
				t.Fatal("adjacent page aliased the top page")
			}
		}},
		{"eviction invalidates the prediction", func(t *testing.T, tl *TLB) {
			cfg := Config{Entries: 8, Ways: 2, WalkLatency: 7} // no STLB backing
			tl = New(cfg)
			tl.Lookup(1, va)
			tl.Lookup(1, va)
			// Thrash va's set until its translation is LRU-evicted.
			nsets := uint64(cfg.Entries / cfg.Ways)
			for i := uint64(1); i <= 4; i++ {
				tl.Lookup(1, va+mem.VAddr(i*nsets*mem.PageSize))
			}
			if hit, _ := tl.Lookup(1, va); hit {
				t.Fatal("predictor hit an evicted translation")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, New(DefaultConfig()))
		})
	}
}
